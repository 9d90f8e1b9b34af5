package check

import (
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/poly"
	"repro/internal/xmath"
)

// VsPoly compares a generated result against a reference polynomial
// (normally the exact oracle's, converted with ToXPoly): Valid
// coefficients must agree to rel relative tolerance, Negligible
// coefficients' proven bounds must dominate the reference magnitude
// (with boundSlack headroom for the float64 evaluation error the bound
// models), and a Valid nonzero where the reference is exactly zero is a
// fabricated coefficient.
func VsPoly(res *core.Result, want poly.XPoly, rel, boundSlack float64, rep *Report) {
	for i, c := range res.Coeffs {
		var w xmath.XFloat
		if i < len(want) {
			w = want[i]
		}
		switch c.Status {
		case core.Valid:
			if w.Zero() {
				rep.assert(c.Value.Zero(), "oracle",
					"%s s^%d: valid %v where the oracle has an exact zero", res.Name, i, c.Value)
				continue
			}
			rep.assert(c.Value.ApproxEqual(w, rel), "oracle",
				"%s s^%d: got %v, oracle %v (rel tol %.1g)", res.Name, i, c.Value, w, rel)
		case core.Negligible:
			if w.Zero() {
				continue
			}
			rep.assert(!c.Bound.Zero() && w.Abs().CmpAbs(c.Bound.MulFloat(boundSlack)) <= 0,
				"oracle-bound", "%s s^%d: oracle coefficient %v exceeds the negligibility bound %v (slack %g)",
				res.Name, i, w, c.Bound, boundSlack)
		}
	}
	// Coefficients beyond the generated order bound would be silently
	// dropped: the oracle's degree must fit.
	rep.assert(want.Degree() < len(res.Coeffs), "oracle",
		"%s: oracle degree %d exceeds the generated order bound %d",
		res.Name, want.Degree(), len(res.Coeffs)-1)
}

// ErrorBars verifies the per-coefficient accuracy certificates against
// a reference polynomial (the exact oracle's rendering): a
// certified coefficient's error bar must bound its measured deviation
// from the oracle, and an exact-tier coefficient must reproduce the
// oracle's correctly-rounded rendering bit for bit. This is the
// ground-truth audit of the conditioning model behind ErrorBar.RelError
// — a certified bar that fails here is a broken certificate, not a
// tolerance issue.
func ErrorBars(res *core.Result, want poly.XPoly, rep *Report) {
	for i, c := range res.Coeffs {
		if i >= len(res.Quality.Coefficients) {
			break
		}
		bar := res.Quality.Coefficients[i]
		var w xmath.XFloat
		if i < len(want) {
			w = want[i]
		}
		switch {
		case c.Status == core.Valid && bar.Tier == core.TierExact:
			rep.assert(c.Value.Mant() == w.Mant() && c.Value.Exp() == w.Exp(), "errorbar-exact",
				"%s s^%d: exact-tier value %v is not the oracle rendering %v", res.Name, i, c.Value, w)
		case c.Status == core.Valid && bar.Tier == core.TierCertified && !c.Value.Zero():
			if w.Zero() {
				rep.assert(false, "errorbar",
					"%s s^%d: certified nonzero %v where the oracle has an exact zero", res.Name, i, c.Value)
				continue
			}
			rep.assert(c.Value.ApproxEqual(w, bar.RelError), "errorbar",
				"%s s^%d: measured error vs oracle exceeds the certified bar %.3g (got %v, oracle %v)",
				res.Name, i, bar.RelError, c.Value, w)
		case c.Status == core.Negligible && bar.Tier == core.TierExact:
			rep.assert(w.Zero(), "errorbar-exact",
				"%s s^%d: exact-tier negligible but the oracle coefficient is %v", res.Name, i, w)
		}
	}
}

// VsRatio cross-checks H = num/den against an exact rational function up
// to a common scalar factor, comparing cross products coefficient-wise
// (exact.RatioEqual). This is the right form when the two formulations
// may normalize differently.
func VsRatio(num, den *core.Result, exNum, exDen poly.XPoly, tol float64, rep *Report) {
	rep.assert(exact.RatioEqual(num.Poly(), den.Poly(), exNum, exDen, tol), "oracle-ratio",
		"%s/%s: generated transfer function disagrees with the oracle beyond rel tol %.1g",
		num.Name, den.Name, tol)
}
