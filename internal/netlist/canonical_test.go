package netlist

import (
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
)

// TestCanonicalInvariance is the cache-key contract: netlists that
// differ only in element order, whitespace, comments, title, element
// names, ground aliasing or value spelling canonicalize identically.
func TestCanonicalInvariance(t *testing.T) {
	base := `test circuit
R1 in n1 1k
C1 n1 0 1u
G1 out 0 n1 0 2m
Rl out gnd 50
.end
`
	variants := map[string]string{
		"reordered": `test circuit
Rl out gnd 50
G1 out 0 n1 0 2m
C1 n1 0 1u
R1 in n1 1k
.end
`,
		"whitespace and comments": `another title
* a comment line
R1   in n1   1000 ; trailing comment
C1 n1 0 1e-6
G1 out 0 n1 0 0.002
Rl out 0 50
.end
`,
		"renamed elements": `test circuit
Rx in n1 1K
Cy n1 GND 1U
Gz out gnd n1 0 2M
Rw out 0 50
.end
`,
	}
	want := mustCanonical(t, base)
	for label, src := range variants {
		if got := mustCanonical(t, src); got != want {
			t.Errorf("%s: canonical form\n%s!= base\n%s", label, got, want)
		}
	}

	// A value change is a different key.
	changed := strings.Replace(base, "1k", "1.001k", 1)
	if got := mustCanonical(t, changed); got == want {
		t.Error("value change did not change the canonical form")
	}
	// A topology change is a different key.
	rewired := strings.Replace(base, "R1 in n1", "R1 in out", 1)
	if got := mustCanonical(t, rewired); got == want {
		t.Error("topology change did not change the canonical form")
	}
}

func mustCanonical(t *testing.T, src string) string {
	t.Helper()
	c, err := ParseString(src, "canon-test")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s, err := CanonicalString(c)
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	return s
}

// TestCanonicalIdempotent pins the fixed-point property on real
// fixtures: parse(canonical(c)) canonicalizes to the same bytes.
func TestCanonicalIdempotent(t *testing.T) {
	fixtures := map[string]*circuit.Circuit{
		"biquad":   circuits.Biquad(),
		"ota":      circuits.OTA(),
		"ua741":    circuits.UA741(),
		"ladder40": circuits.RCLadder(40, 1e3, 1e-9),
		"lc":       circuits.LCLadder(5, 50, 2e6),
	}
	for name, c := range fixtures {
		s1, err := CanonicalString(c)
		if err != nil {
			t.Fatalf("%s: canonical: %v", name, err)
		}
		c2, err := ParseString(s1, name+"-canon")
		if err != nil {
			t.Fatalf("%s: canonical form does not reparse: %v\n%s", name, err, s1)
		}
		s2, err := CanonicalString(c2)
		if err != nil {
			t.Fatalf("%s: re-canonical: %v", name, err)
		}
		if s1 != s2 {
			t.Errorf("%s: canonicalization is not idempotent:\n--- first\n%s--- second\n%s", name, s1, s2)
		}
		if len(c2.Elements()) != len(c.Elements()) {
			t.Errorf("%s: canonical form kept %d of %d elements", name, len(c2.Elements()), len(c.Elements()))
		}
	}
}

// TestCanonicalFormatRoundTrip checks the Format → parse → canonical
// path used by clients shipping programmatic circuits over the wire.
func TestCanonicalFormatRoundTrip(t *testing.T) {
	c := circuits.Biquad()
	text, err := FormatString(c)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseString(text, "wire")
	if err != nil {
		t.Fatal(err)
	}
	h1, err := CanonicalString(parsed)
	if err != nil {
		t.Fatal(err)
	}
	// The same wire text parsed twice keys identically.
	parsed2, err := ParseString("retitled\n"+strings.SplitN(text, "\n", 2)[1], "wire2")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := CanonicalString(parsed2)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("retitled wire text changed the canonical form:\n%s--- vs\n%s", h1, h2)
	}
}

// TestCanonicalControlledSources pins CCCS/CCVS control references onto
// the renamed voltage sources.
func TestCanonicalControlledSources(t *testing.T) {
	src := `controlled
V2 in 0 1
Vb bias 0 2
F1 a 0 V2 5
H1 d 0 Vb 1k
Ra a 0 1
Rd d 0 1
Rin in 0 50
Rb bias 0 70
.end
`
	c, err := ParseString(src, "ctl")
	if err != nil {
		t.Fatal(err)
	}
	s, err := CanonicalString(c)
	if err != nil {
		t.Fatal(err)
	}
	// Control references must name emitted V cards, not original names
	// ("Vb" must not survive; reparse below also validates the links).
	if strings.Contains(s, "Vb") {
		t.Errorf("canonical form leaked original control name:\n%s", s)
	}
	c2, err := ParseString(s, "ctl-canon")
	if err != nil {
		t.Fatalf("canonical form does not reparse: %v\n%s", err, s)
	}
	s2, err := CanonicalString(c2)
	if err != nil {
		t.Fatal(err)
	}
	if s != s2 {
		t.Errorf("not idempotent:\n%s\nvs\n%s", s, s2)
	}
}

func TestCanonicalRejects(t *testing.T) {
	bad := circuit.New("bad nodes")
	bad.AddR("r1", "a b", "0", 50)
	if _, err := CanonicalString(bad); err == nil {
		t.Error("node name with a space was accepted")
	}
	short := circuit.New("ground short")
	short.AddR("ok", "x", "0", 50)
	short.AddElement(circuit.Element{Kind: circuit.Resistor, Name: "rg", P: "gnd", N: "0", Value: 1})
	if _, err := CanonicalString(short); err == nil {
		t.Error("gnd-to-0 self short was accepted")
	}
}
