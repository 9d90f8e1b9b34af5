package main

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/circuit"
	"repro/internal/exact"
	"repro/pkg/engine"
)

// sigmaTol is the relative tolerance of agreement to σ significant
// digits: one unit in the σ-th digit.
func sigmaTol(sigDigits int) float64 { return math.Pow(10, float64(1-sigDigits)) }

// agree reports whether two generations of one network function carry
// the same coefficients: equal length, equal status per coefficient, no
// Unknown coefficient, and every Valid value within tol of the other.
func agree(got, want *engine.Response, tol float64) error {
	for _, p := range []struct {
		name      string
		got, want *engine.Result
	}{{"numerator", got.Num, want.Num}, {"denominator", got.Den, want.Den}} {
		if p.got == nil || p.want == nil {
			return fmt.Errorf("%s missing", p.name)
		}
		if len(p.got.Coeffs) != len(p.want.Coeffs) {
			return fmt.Errorf("%s: %d coefficients, want %d", p.name, len(p.got.Coeffs), len(p.want.Coeffs))
		}
		for i, g := range p.got.Coeffs {
			w := p.want.Coeffs[i]
			switch {
			case g.Status == engine.Unknown:
				return fmt.Errorf("%s s^%d: unknown", p.name, i)
			case g.Status != w.Status:
				return fmt.Errorf("%s s^%d: status %v, want %v", p.name, i, g.Status, w.Status)
			case g.Status == engine.Valid && !g.Value.ApproxEqual(w.Value, tol):
				return fmt.Errorf("%s s^%d: %v, want %v (rel tol %.1g)", p.name, i, g.Value, w.Value, tol)
			}
		}
	}
	return nil
}

// checkReference is the µA741 op check: coefficients agree with the
// committed reference to its σ digits, and the tier is no lower than
// the reference's.
func checkReference(resp, ref *engine.Response) error {
	if resp.Tier() < ref.Tier() {
		return fmt.Errorf("tier %v below the reference's %v", resp.Tier(), ref.Tier())
	}
	return agree(resp, ref, sigmaTol(ref.Den.SigDigits))
}

// noUnknown reports the first Unknown coefficient of a response.
func noUnknown(resp *engine.Response) error {
	for _, r := range []*engine.Result{resp.Num, resp.Den} {
		if r == nil {
			return errors.New("polynomial missing")
		}
		for i, c := range r.Coeffs {
			if c.Status == engine.Unknown {
				return fmt.Errorf("%s s^%d: unknown", r.Name, i)
			}
		}
	}
	return nil
}

// oracleTol is the relative tolerance of the repository's own
// exact-oracle comparisons (cmd/checkrun, the engine tests).
const oracleTol = 1e-4

// checkOracle decodes a wire body and compares it with the exact
// Bareiss oracle of the voltage gain in → out of c: every Valid
// coefficient within oracleTol, every certified one within its own error
// bar, every Negligible bound dominating the oracle.
func checkOracle(body []byte, c *circuit.Circuit, in, out string) error {
	_, num, den, err := engine.DecodeResponseJSON(body)
	if err != nil {
		return fmt.Errorf("decoding body: %w", err)
	}
	if num == nil || den == nil {
		return errors.New("body lacks a polynomial")
	}
	exNum, exDen, err := exact.VoltageGain(c, in, out)
	if err != nil {
		return fmt.Errorf("exact oracle: %w", err)
	}
	rep := &check.Report{}
	check.VsPoly(num, exNum.ToXPoly(), oracleTol, 4, rep)
	check.VsPoly(den, exDen.ToXPoly(), oracleTol, 4, rep)
	check.ErrorBars(num, exNum.ToXPoly(), rep)
	check.ErrorBars(den, exDen.ToXPoly(), rep)
	return rep.Err()
}
