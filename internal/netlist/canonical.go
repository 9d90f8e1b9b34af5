package netlist

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/circuit"
)

// CanonicalString renders a circuit in canonical netlist form: the one
// spelling shared by every netlist describing the same element multiset.
// It is the content-addressing key of the result cache — two requests
// whose netlists differ only in element order, element names,
// whitespace, comments, title, value spelling ("1000" vs "1k" vs "1E3")
// or ground aliasing ("0" vs "gnd") canonicalize to identical text and
// therefore hash identically.
//
// The form is itself a parseable netlist:
//   - fixed title line "canonical", terminated by ".end";
//   - ground spelled "0", all other node names verbatim;
//   - values spelled as the shortest exact decimal ("1.5E-12");
//   - explicit conductances emitted as the equivalent resistor (the
//     grammar has no conductance card);
//   - elements sorted by (kind, terminals, value bits) and renamed
//     positionally (R1, R2, …, V1, …), with current-controlled sources
//     sorted last so their control reference can name the already-placed
//     voltage source.
//
// Canonicalization is idempotent: parsing the canonical form and
// canonicalizing again reproduces it byte for byte (the
// FuzzCanonicalNetlist target pins this). It fails only on circuits
// that cannot round-trip through the grammar — node names containing
// whitespace or comment characters, or conductances whose reciprocal
// leaves float64 range.
func CanonicalString(c *circuit.Circuit) (string, error) {
	type canonElem struct {
		kind     circuit.Kind
		p, n     string
		cp, cn   string
		ctrl     string // original controlling-source name (CCCS/CCVS)
		ctrlIdx  int    // resolved index into the sorted plain list
		value    float64
		valueKey uint64
	}

	var plain, controlled []canonElem
	for _, e := range c.Elements() {
		ce := canonElem{kind: e.Kind, p: canonNode(e.P), n: canonNode(e.N), value: e.Value}
		switch e.Kind {
		case circuit.Conductance:
			// No conductance card: the equivalent resistor. The inversion
			// happens exactly once — reparsing yields a Resistor, which
			// re-emits the same value — so the form stays a fixed point.
			ce.kind, ce.value = circuit.Resistor, 1/e.Value
			if err := checkStampable(ce.value); err != nil {
				return "", fmt.Errorf("netlist: canonical form of conductance %q: %w", e.Name, err)
			}
		case circuit.VCCS, circuit.VCVS:
			ce.cp, ce.cn = canonNode(e.CP), canonNode(e.CN)
		case circuit.CCCS, circuit.CCVS:
			ce.ctrl = e.Ctrl
		}
		for _, node := range []string{ce.p, ce.n, ce.cp, ce.cn} {
			if node == "" {
				continue
			}
			if strings.ContainsAny(node, " \t*;") {
				return "", fmt.Errorf("netlist: node name %q cannot appear in a netlist card", node)
			}
		}
		// Ground aliasing can fold a programmatic gnd↔0 element into a
		// self-short the grammar rejects; such an element stamps nothing,
		// but refusing beats emitting an unparseable card.
		if ce.p == ce.n && e.Kind != circuit.VCCS && e.Kind != circuit.VCVS {
			return "", fmt.Errorf("netlist: element %q shorts ground alias to ground", e.Name)
		}
		ce.valueKey = math.Float64bits(ce.value)
		if ce.kind == circuit.CCCS || ce.kind == circuit.CCVS {
			controlled = append(controlled, ce)
		} else {
			plain = append(plain, ce)
		}
	}

	less := func(a, b canonElem) bool {
		switch {
		case a.kind != b.kind:
			return a.kind < b.kind
		case a.p != b.p:
			return a.p < b.p
		case a.n != b.n:
			return a.n < b.n
		case a.cp != b.cp:
			return a.cp < b.cp
		case a.cn != b.cn:
			return a.cn < b.cn
		case a.ctrlIdx != b.ctrlIdx:
			return a.ctrlIdx < b.ctrlIdx
		}
		return a.valueKey < b.valueKey
	}
	sort.SliceStable(plain, func(i, j int) bool { return less(plain[i], plain[j]) })

	// Resolve current-control references onto the sorted voltage sources,
	// then give the controlled sources their own deterministic order.
	vIndex := map[string]int{}
	for i, ce := range plain {
		if ce.kind == circuit.VSource {
			// Positions of equal-content sources are interchangeable, so
			// "first wins" on the (already deduplicated) original names.
			for _, e := range c.Elements() {
				if e.Kind == circuit.VSource && canonNode(e.P) == ce.p && canonNode(e.N) == ce.n &&
					math.Float64bits(e.Value) == ce.valueKey {
					if _, seen := vIndex[e.Name]; !seen {
						vIndex[e.Name] = i
					}
				}
			}
		}
	}
	for i := range controlled {
		idx, ok := vIndex[controlled[i].ctrl]
		if !ok {
			return "", fmt.Errorf("netlist: control source %q is not a voltage source", controlled[i].ctrl)
		}
		controlled[i].ctrlIdx = idx
	}
	sort.SliceStable(controlled, func(i, j int) bool { return less(controlled[i], controlled[j]) })

	// Positional renaming: per-card-letter counters in emission order.
	names := make([]string, len(plain))
	counters := map[string]int{}
	newName := func(letter string) string {
		counters[letter]++
		return fmt.Sprintf("%s%d", letter, counters[letter])
	}
	var b strings.Builder
	b.WriteString("canonical\n")
	emit := func(ce canonElem, name string) error {
		v := strconv.FormatFloat(ce.value, 'E', -1, 64)
		switch ce.kind {
		case circuit.Resistor, circuit.Capacitor, circuit.Inductor, circuit.VSource, circuit.ISource:
			fmt.Fprintf(&b, "%s %s %s %s\n", name, ce.p, ce.n, v)
		case circuit.VCCS, circuit.VCVS:
			fmt.Fprintf(&b, "%s %s %s %s %s %s\n", name, ce.p, ce.n, ce.cp, ce.cn, v)
		case circuit.CCCS, circuit.CCVS:
			fmt.Fprintf(&b, "%s %s %s %s %s\n", name, ce.p, ce.n, names[ce.ctrlIdx], v)
		default:
			return fmt.Errorf("netlist: cannot canonicalize element kind %v", ce.kind)
		}
		return nil
	}
	for i, ce := range plain {
		names[i] = newName(cardLetter(ce.kind))
		if err := emit(ce, names[i]); err != nil {
			return "", err
		}
	}
	for _, ce := range controlled {
		if err := emit(ce, newName(cardLetter(ce.kind))); err != nil {
			return "", err
		}
	}
	b.WriteString(".end\n")
	return b.String(), nil
}

// canonNode normalizes one node name: every ground alias spells "0".
func canonNode(n string) string {
	if n == "" {
		return ""
	}
	if circuit.IsGround(n) {
		return "0"
	}
	return n
}

// cardLetter maps an element kind to its canonical card letter.
func cardLetter(k circuit.Kind) string {
	switch k {
	case circuit.Resistor, circuit.Conductance:
		return "R"
	case circuit.Capacitor:
		return "C"
	case circuit.Inductor:
		return "L"
	case circuit.VCCS:
		return "G"
	case circuit.VCVS:
		return "E"
	case circuit.CCCS:
		return "F"
	case circuit.CCVS:
		return "H"
	case circuit.VSource:
		return "V"
	case circuit.ISource:
		return "I"
	}
	return "?"
}
