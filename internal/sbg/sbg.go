// Package sbg implements Simplification Before Generation — the second
// methodology the paper's references need. SBG "takes place in the
// network under analysis, replacing those elements (or subcircuits),
// whose contribution (appropriately measured) to the network function is
// negligible, with a zero-admittance or zero-impedance element", with
// error control that "compare[s] a numerical evaluation of the
// simplified expression with a numerical estimate of the complete
// (exact) expression" (paper §1) — the numerical reference that
// internal/core generates.
//
// The simplifier greedily tries, for every two-terminal element, the two
// degenerate replacements — open (zero admittance: element removed) and
// short (zero impedance: terminals merged) — and keeps a replacement
// when the network-function response over the frequency band stays
// within the error budget of the reference response. Transconductances
// are only opened (shorting a controlled source has no meaning).
package sbg

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"repro/internal/circuit"
	"repro/internal/mna"
)

// Action describes one accepted simplification.
type Action struct {
	// Element is the simplified element's name.
	Element string
	// Op is "open" or "short".
	Op string
	// WorstDB is the worst-case magnitude deviation (dB) of the
	// simplified circuit against the reference response after this
	// action.
	WorstDB float64
}

// Config controls the simplifier.
type Config struct {
	// MaxErrDB is the allowed worst-case magnitude deviation of the
	// simplified response against the reference, in dB. 0 selects 0.5.
	MaxErrDB float64
	// MaxPhaseDeg is the allowed worst-case phase deviation in degrees.
	// 0 selects 5.
	MaxPhaseDeg float64
}

// Result is the outcome of a simplification run.
type Result struct {
	// Circuit is the simplified circuit.
	Circuit *circuit.Circuit
	// Actions lists the accepted replacements in order.
	Actions []Action
	// Before and After count the circuit elements.
	Before, After int
}

// response is the complex transfer response sampled over the band.
type response []complex128

// driver names how the circuit is excited and observed: differentially
// between in and inn, or single-ended at in when inn is empty.
type driver struct {
	in, inn, out string
}

// Simplify reduces the circuit driven differentially (inn != "") or
// single-ended between in and ground, observed at out, over the given
// frequency band. The reference response must come from the full
// circuit (typically via the generated coefficient polynomials, or a
// direct AC run); the error budget is measured against it, so
// accumulated drift over many removals stays bounded.
func Simplify(c *circuit.Circuit, in, inn, out string, freqsHz []float64, ref []complex128, cfg Config) (*Result, error) {
	if cfg.MaxErrDB == 0 {
		cfg.MaxErrDB = 0.5
	}
	if cfg.MaxPhaseDeg == 0 {
		cfg.MaxPhaseDeg = 5
	}
	if len(ref) != len(freqsHz) {
		return nil, fmt.Errorf("sbg: reference has %d points, band has %d", len(ref), len(freqsHz))
	}
	drv := driver{in: in, inn: inn, out: out}

	// Work on name-indexed element lists with node-rename maps for
	// shorts.
	elems := append([]circuit.Element(nil), c.Elements()...)
	renames := map[string]string{}
	res := &Result{Before: len(elems)}

	// Candidate order: smallest admittance magnitude at the band's
	// geometric-center frequency first (most likely negligible).
	center := math.Sqrt(freqsHz[0] * freqsHz[len(freqsHz)-1])
	order := candidateOrder(elems, center)

	current, err := drv.respond(buildFrom(c.Name, elems, renames), freqsHz)
	if err != nil {
		return nil, fmt.Errorf("sbg: full circuit does not solve: %w", err)
	}
	if db, deg := deviation(current, ref); db > cfg.MaxErrDB || deg > cfg.MaxPhaseDeg {
		return nil, fmt.Errorf("sbg: full circuit already deviates from the reference by %.3g dB / %.3g° — inconsistent reference", db, deg)
	}

	for _, idx := range order {
		e := elems[idx]
		if e.Name == "" { // already removed
			continue
		}
		ops := []string{"open"}
		switch e.Kind {
		case circuit.Resistor, circuit.Conductance, circuit.Capacitor, circuit.Inductor:
			ops = []string{"open", "short"}
		}
		for _, op := range ops {
			trial := make([]circuit.Element, len(elems))
			copy(trial, elems)
			trialRenames := copyRenames(renames)
			if op == "open" {
				trial[idx] = circuit.Element{}
			} else {
				// Short: merge node N into node P (resolved through
				// previous renames).
				p := resolve(trialRenames, e.P)
				n := resolve(trialRenames, e.N)
				if p == n {
					continue
				}
				// Never merge away a terminal the driver needs, and keep
				// ground ground.
				if circuit.IsGround(n) {
					p, n = n, p
				}
				if isTerminal(drv, n) && !isTerminal(drv, p) {
					p, n = n, p
				}
				if isTerminal(drv, n) || circuit.IsGround(n) {
					continue
				}
				trialRenames[n] = p
				trial[idx] = circuit.Element{}
			}
			sc := buildFrom(c.Name, trial, trialRenames)
			if sc == nil {
				continue
			}
			resp, err := drv.respond(sc, freqsHz)
			if err != nil {
				continue
			}
			db, deg := deviation(resp, ref)
			if db <= cfg.MaxErrDB && deg <= cfg.MaxPhaseDeg {
				elems = trial
				renames = trialRenames
				res.Actions = append(res.Actions, Action{Element: e.Name, Op: op, WorstDB: db})
				break
			}
		}
	}
	res.Circuit = buildFrom(c.Name+" (simplified)", elems, renames)
	res.After = 0
	for _, e := range elems {
		if e.Name != "" {
			res.After++
		}
	}
	return res, nil
}

// ReferenceResponse computes the complex response the simplifier
// measures against, by direct AC analysis of the full circuit.
func ReferenceResponse(c *circuit.Circuit, in, inn, out string, freqsHz []float64) ([]complex128, error) {
	drv := driver{in: in, inn: inn, out: out}
	return drv.respond(c, freqsHz)
}

func isTerminal(drv driver, node string) bool {
	return node == drv.in || node == drv.inn || node == drv.out
}

func copyRenames(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// resolve follows the rename chain to the final node name.
func resolve(renames map[string]string, node string) string {
	for {
		next, ok := renames[node]
		if !ok {
			return node
		}
		node = next
	}
}

// buildFrom reconstructs a circuit from the element list, applying node
// renames and dropping removed elements and elements degenerated by
// merges. Returns nil when the result is structurally empty.
func buildFrom(name string, elems []circuit.Element, renames map[string]string) *circuit.Circuit {
	out := circuit.New(name)
	for _, e := range elems {
		if e.Name == "" {
			continue
		}
		e.P = resolve(renames, e.P)
		e.N = resolve(renames, e.N)
		if e.CP != "" {
			e.CP = resolve(renames, e.CP)
		}
		if e.CN != "" {
			e.CN = resolve(renames, e.CN)
		}
		if e.P == e.N {
			switch e.Kind {
			case circuit.VCCS, circuit.VCVS:
				// Output shorted: contributes nothing.
				continue
			default:
				continue // two-terminal element across a merged node
			}
		}
		if err := out.AddElement(e); err != nil {
			return nil
		}
	}
	if len(out.Elements()) == 0 {
		return nil
	}
	return out
}

// respond drives the circuit and samples the output over the band.
func (d driver) respond(c *circuit.Circuit, freqsHz []float64) (response, error) {
	if c == nil {
		return nil, fmt.Errorf("sbg: empty circuit")
	}
	kind := "vgain"
	if d.inn != "" {
		kind = "diffgain"
	}
	return mna.Response(context.Background(), c, kind, d.in, d.inn, d.out, freqsHz)
}

// deviation returns worst-case dB and degree deviations between two
// responses.
func deviation(a, b response) (maxDB, maxDeg float64) {
	for i := range a {
		ma, mb := cmplx.Abs(a[i]), cmplx.Abs(b[i])
		if ma == 0 || mb == 0 {
			if ma != mb {
				return math.Inf(1), math.Inf(1)
			}
			continue
		}
		if db := math.Abs(20 * math.Log10(ma/mb)); db > maxDB {
			maxDB = db
		}
		dphi := cmplx.Phase(a[i]/b[i]) * 180 / math.Pi
		if d := math.Abs(dphi); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDB, maxDeg
}

// candidateOrder returns element indices sorted by ascending admittance
// magnitude at ω = 2π·centerHz (the cheapest plausible negligibility
// ranking); sources and controlled sources sort by |value|.
func candidateOrder(elems []circuit.Element, centerHz float64) []int {
	w := 2 * math.Pi * centerHz
	weight := func(e circuit.Element) float64 {
		switch e.Kind {
		case circuit.Resistor:
			return 1 / e.Value
		case circuit.Conductance:
			return e.Value
		case circuit.Capacitor:
			return w * e.Value
		case circuit.Inductor:
			return 1 / (w * e.Value)
		default:
			return math.Abs(e.Value)
		}
	}
	idx := make([]int, len(elems))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return weight(elems[idx[a]]) < weight(elems[idx[b]])
	})
	return idx
}
