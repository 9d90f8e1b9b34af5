package core

import (
	"repro/internal/poly"
	"repro/internal/xmath"
)

// frame captures one interpolation's scale factors, valid region and
// error model for the scale-update formulas and negligibility bounds.
type frame struct {
	f, g       float64
	normalized poly.XPoly // absolute index frame
	k0, l0     int        // window the transform covered (absolute)
	lo, hi     int        // valid region (absolute)
	maxIdx     int        // index of the largest normalized coefficient
	// base is the round-off error level 10^NoiseExp·max(|p'|, |known'|);
	// slotErr[i] adds the eq. (17) deflation residual that aliases onto
	// absolute index i (nil when the full point set was used). The
	// validity threshold at index i is 10^σ·(base + slotErr[i]).
	// slotErr is the generator's deflation scratch: it holds only until
	// the next frame runs, so only the current frame's thresholds are
	// ever read.
	base    xmath.XFloat
	slotErr []xmath.XFloat
	// subtracted marks indices deflated out per eq. (17): their slots
	// hold subtraction residue, not signal — never re-accepted, and
	// transparent to region contiguity.
	subtracted []bool
}

// thresholdAt returns the validity threshold for absolute index i.
func (fr *frame) thresholdAt(sigDigits, i int) xmath.XFloat {
	e := fr.base
	if fr.slotErr != nil && i < len(fr.slotErr) {
		e = e.Add(fr.slotErr[i])
	}
	return e.Mul(xmath.Pow10(sigDigits))
}

// windowClassifier detects the valid region of one interpolation frame —
// the contiguous index run whose coefficients carry signal rather than
// noise. The region's endpoints feed the scale-update policy.
type windowClassifier interface {
	// Classify returns the maximal contiguous run containing maxIdx (the
	// index of the largest normalized coefficient) in which every
	// coefficient clears its slot threshold. ok is false when even the
	// maximum is below threshold (all noise) or the window is identically
	// zero (maxIdx < 0).
	Classify(fr *frame, maxIdx int) (lo, hi int, ok bool)
}

// sigmaClassifier is the paper's validity rule: a coefficient is valid
// when it stands 10^σ above the frame's error level at its slot.
// Deflated slots are transparent to region contiguity but trimmed from
// the endpoints, because the boundary values feed the scale-update
// formulas and must be signal.
type sigmaClassifier struct {
	sigDigits int
}

func (cl sigmaClassifier) Classify(fr *frame, maxIdx int) (lo, hi int, ok bool) {
	if maxIdx < 0 {
		return 0, 0, false
	}
	above := func(i int) bool {
		if fr.subtracted != nil && fr.subtracted[i] {
			// Deflated slot: carries residue, not signal; transparent.
			return true
		}
		return fr.normalized[i].CmpAbs(fr.thresholdAt(cl.sigDigits, i)) >= 0
	}
	if !above(maxIdx) {
		return 0, 0, false
	}
	lo, hi = maxIdx, maxIdx
	for lo > 0 && above(lo-1) {
		lo--
	}
	for hi < len(fr.normalized)-1 && above(hi+1) {
		hi++
	}
	// Trim pass-through endpoints: the boundary values feed the
	// scale-update formulas and must be signal.
	for lo < hi && fr.subtracted != nil && fr.subtracted[lo] {
		lo++
	}
	for hi > lo && fr.subtracted != nil && fr.subtracted[hi] {
		hi--
	}
	return lo, hi, true
}
