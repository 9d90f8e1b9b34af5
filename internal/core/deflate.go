package core

import (
	"math"

	"repro/internal/interp"
	"repro/internal/xmath"
)

// deflation implements the problem-size reduction of eq. (17): the
// already-known coefficients, expressed in the current frame's normalized
// form, are subtracted from the point values so the interpolation can
// shrink to the unresolved window
//
//	P'(u) = (P(u) − Σ_known p'_j·u^j) / u^k0            (eq. 17)
//
// Each known coefficient carries only σ+quality significant digits; its
// residual survives the subtraction and — because the reduced transform
// uses K points — aliases exactly onto output slot k0+((j−k0) mod K).
// slotErr accumulates those residual bounds per output slot so the
// validity test can require every accepted coefficient to stand 10^σ
// above the error actually landing on its slot. Negligible bounds and
// the far-side unknowns of a one-sided span (boundFar) alias the same
// way: they stay in P(u) unsubtracted, bounded but not interpolated.
type deflation struct {
	span
	// coeffs and sigDigits are the run's coefficients and σ, as of reset.
	coeffs    []Coefficient
	sigDigits int
	// scaled holds each Valid value and each Negligible bound in the
	// frame's normalized form (zero at the other indices). It depends
	// only on the frame's scales, so reset fills it once per frame and
	// aim reuses it for each candidate span; apply subtracts the Valid
	// entries aim marks.
	scaled []xmath.XFloat
	// maxKnown is the largest normalized known magnitude; it competes
	// with the window maximum for the round-off noise base.
	maxKnown xmath.XFloat
	// slotErr bounds the deflation residual aliasing onto each output
	// slot (indexed by absolute slot; sized to cover both the threshold
	// range and every guard slot of the frame's point count).
	slotErr []xmath.XFloat
	// subtracted marks the deflated absolute indices.
	subtracted []bool
	// n is the order bound.
	n int
}

// span is the window one frame's transform covers: absolute indices
// [k0, l0], interpolated with kUse points (the window, its guard points
// and any retry bump). A one-sided span (generator.sideRun) holds only
// the Unknown run at a directed frame's own end and the uncertain Valid
// coefficients next to it, which it re-measures instead of subtracting.
type span struct {
	k0, l0, kUse int
	oneSided     bool
}

// reset prepares the eq. (17) subtraction of one frame under scale
// factors (f, gsc) and homogeneity degree mDeg; aim then picks its span.
// scaled and slotErr are per-run scratch, valid until the next reset;
// subtracted escapes into the frame's Iteration and is allocated afresh
// by the first aim after each reset.
func (d *deflation) reset(coeffs []Coefficient, f, gsc float64, mDeg, n, sigDigits int) {
	scaled := frameBuf(&d.scaled, n+1)
	clear(scaled)
	*d = deflation{coeffs: coeffs, sigDigits: sigDigits, scaled: scaled, slotErr: d.slotErr, n: n}
	xf, xg := xmath.FromFloat(f), xmath.FromFloat(gsc)
	for j, c := range coeffs {
		switch c.Status {
		case Valid:
			scaled[j] = c.Value.Mul(xf.PowInt(j)).Mul(xg.PowInt(mDeg - j))
		case Negligible:
			scaled[j] = c.Bound.Mul(xf.PowInt(j)).Mul(xg.PowInt(mDeg - j))
		}
	}
}

// aim sets the span w: it marks the known coefficients to subtract —
// all of them, except those inside a one-sided span, which the frame
// re-measures — and aliases onto its output slot the residual each
// subtracted coefficient leaves (it carries only σ+quality digits) and
// each Negligible bound.
func (d *deflation) aim(w span) {
	// The slot table must reach every threshold index (≤ n) and every
	// guard slot (< k0+kUse); retried frames bump kUse past the usual
	// window+guardPoints, so size for whichever is larger.
	slotErr := frameBuf(&d.slotErr, max(d.n+1+guardPoints, w.k0+w.kUse))
	clear(slotErr)
	if d.subtracted == nil {
		d.subtracted = make([]bool, d.n+1)
	} else {
		clear(d.subtracted)
	}
	d.span, d.maxKnown = w, xmath.XFloat{}
	for j, x := range d.scaled {
		if x.Zero() {
			continue
		}
		delta := x
		if c := d.coeffs[j]; c.Status == Valid {
			if w.oneSided && j >= w.k0 && j <= w.l0 {
				continue
			}
			d.subtracted[j] = true
			mag := x.Abs()
			if mag.CmpAbs(d.maxKnown) > 0 {
				d.maxKnown = mag
			}
			digits := math.Min(float64(d.sigDigits)+c.Quality, 15.5)
			delta = mag.MulFloat(math.Pow(10, -digits))
		}
		// A Negligible coefficient's true value (≤ Bound) stays in P(u)
		// unsubtracted and aliases like any other residue.
		slot := w.k0 + mod(j-w.k0, w.kUse)
		slotErr[slot] = slotErr[slot].Add(delta)
	}
}

// boundFar admits the far side of a one-sided span — the Unknown
// coefficients of the structural window outside [k0, l0] — through
// their measured bounds (generator.bounds, rescaled by eq. 11) into
// slotErr, as reset admits Negligible bounds; indices outside the
// structural window are exact zeros. It reports false, and the frame
// must keep its full window, when a far-side unknown has no measured
// bound yet or when the bounds aliasing onto some slot exceed
// 10^NoiseExp·maxKnown. That quantity is a lower bound on the frame's
// own noise base (errBase in interpolate), so narrowing at most doubles
// a threshold. On false, slotErr is partly updated and d must be aimed
// again.
func (g *generator) boundFar(d *deflation, f, gsc float64) bool {
	limit := d.maxKnown.Mul(xmath.Pow10(interp.NoiseExp))
	if limit.Zero() || g.bounds == nil {
		return false
	}
	xf, xg := xmath.FromFloat(f), xmath.FromFloat(gsc)
	// One output slot at a time: slot k0+r collects every j ≡ k0+r
	// (mod kUse).
	for r := 0; r < d.kUse; r++ {
		var sum xmath.XFloat
		for j := g.wlo + mod(d.k0+r-g.wlo, d.kUse); j <= g.whi; j += d.kUse {
			if (j >= d.k0 && j <= d.l0) || g.res.Coeffs[j].Status != Unknown {
				continue
			}
			b := g.bounds[j]
			if b.Zero() {
				return false
			}
			sum = sum.Add(b.Mul(xf.PowInt(j)).Mul(xg.PowInt(g.ev.M - j)))
		}
		if sum.CmpAbs(limit) > 0 {
			return false
		}
		if !sum.Zero() {
			d.slotErr[d.k0+r] = d.slotErr[d.k0+r].Add(sum)
		}
	}
	return true
}

// apply performs the eq. (17) subtraction and u^k0 division in place.
// It runs on the computed half only: the known coefficients are real, so
// deflation commutes with conjugation and the mirrored points inherit it
// exactly.
func (d *deflation) apply(values []xmath.XComplex, pts []complex128) {
	for i := range values {
		u := pts[i]
		v := values[i]
		uPow := xmath.FromComplex(1)
		xu := xmath.FromComplex(u)
		for j := 0; j <= d.n; j++ {
			if d.subtracted[j] {
				v = v.Sub(xmath.FromXFloat(d.scaled[j]).Mul(uPow))
			}
			uPow = uPow.Mul(xu)
		}
		values[i] = v.Div(xmath.FromComplex(u).PowInt(d.k0))
	}
}

// guardExcess filters a guard slot's residue against the deflation
// residual already accounted at that slot: residue the residual explains
// (within a factor of 2) is not evidence of evaluation noise. It returns
// the excess magnitude and whether any excess counts. A nil receiver
// (no deflation) passes the residue through unchanged.
func (d *deflation) guardExcess(slot int, resid xmath.XFloat) (xmath.XFloat, bool) {
	if d == nil {
		return resid, true
	}
	explained := d.slotErr[slot]
	if explained.Zero() {
		return resid, true
	}
	if resid.CmpAbs(explained.MulFloat(2)) <= 0 {
		return xmath.XFloat{}, false
	}
	return resid.Sub(explained).Abs(), true
}

// mod returns a modulo m in [0, m).
func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
