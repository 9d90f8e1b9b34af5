package core

import (
	"math"

	"repro/internal/interp"
)

// scaleProposal is one planned interpolation: the scale pair to use and
// the purpose tag ("up", "down" or "repair") recorded in the iteration
// log.
type scaleProposal struct {
	f, g    float64
	purpose string
}

// scalePolicy plans the next interpolation's scale factors from the
// frames bracketing the target coefficient.
type scalePolicy interface {
	// Propose returns the next scale pair for the current target given
	// the bracketing frames (either may be nil), the widened tuning
	// factor r, and the scale pair of the previous attempt at the same
	// target (both zero when none). ok is false only when neither frame
	// brackets the target.
	Propose(lower, upper *frame, r, lastF, lastG float64) (scaleProposal, bool)
}

// paperScalePolicy implements the paper's scale updates: directed moves
// per eqs. (14)–(15), gap repair per eq. (16), and the single-factor
// ablation variant of the eq. (13) split when selected.
type paperScalePolicy struct {
	singleFactor bool
}

func (p paperScalePolicy) Propose(lower, upper *frame, r, lastF, lastG float64) (scaleProposal, bool) {
	if lower != nil && upper != nil {
		// Target stranded between two valid regions: eq. (16) repair —
		// unless the brackets haven't tightened since the last attempt
		// (same factors would recur forever).
		f2, g2 := interp.RepairScales(lower.f, lower.g, upper.f, upper.g)
		if !sameScales(f2, g2, lastF, lastG) {
			return scaleProposal{f: f2, g: g2, purpose: "repair"}, true
		}
	}
	next := interp.NextScales
	if p.singleFactor {
		next = interp.NextScalesSingle
	}
	switch {
	case lower != nil:
		// Move up from the region below: eq. (14).
		pe, pm := lower.normalized[lower.hi], lower.normalized[lower.maxIdx]
		f2, g2 := next(lower.f, lower.g, pm, pe, lower.maxIdx, lower.hi, r, +1)
		return scaleProposal{f: f2, g: g2, purpose: "up"}, true
	case upper != nil:
		// Move down from the region above: eq. (15).
		pe, pm := upper.normalized[upper.lo], upper.normalized[upper.maxIdx]
		f2, g2 := next(upper.f, upper.g, pm, pe, upper.maxIdx, upper.lo, r, -1)
		return scaleProposal{f: f2, g: g2, purpose: "down"}, true
	}
	return scaleProposal{}, false
}

// checkProposal is the divergence watchdog: a proposed scale pair must
// be positive and finite — a non-finite scale would poison every solve —
// and, when Config.MaxScaleDriftLog10 is set, within that many decades
// of the seed pair (the eq. 11 homogeneity bound internal/check enforces
// post-hoc). A violation is a *ScaleDivergenceError.
func (g *generator) checkProposal(prop scaleProposal, target int) error {
	bad := !(prop.f > 0) || !(prop.g > 0) || math.IsInf(prop.f, 0) || math.IsInf(prop.g, 0)
	drift := math.NaN()
	if !bad {
		drift = math.Max(
			math.Abs(math.Log10(prop.f)-math.Log10(g.cfg.InitFScale)),
			math.Abs(math.Log10(prop.g)-math.Log10(g.cfg.InitGScale)))
		bad = math.IsNaN(drift) || math.IsInf(drift, 0) ||
			(g.cfg.MaxScaleDriftLog10 > 0 && drift > g.cfg.MaxScaleDriftLog10)
	}
	if !bad {
		return nil
	}
	return &ScaleDivergenceError{
		Name: g.res.Name, Target: target,
		FScale: prop.f, GScale: prop.g,
		InitF: g.cfg.InitFScale, InitG: g.cfg.InitGScale,
		DriftLog10: drift, BoundLog10: max(g.cfg.MaxScaleDriftLog10, 0),
	}
}

// sameScales reports whether two scale-factor pairs coincide to within
// rounding.
func sameScales(f1, g1, f2, g2 float64) bool {
	close := func(a, b float64) bool {
		if b == 0 {
			return a == 0
		}
		d := a/b - 1
		return d < 1e-9 && d > -1e-9
	}
	return close(f1, f2) && close(g1, g2)
}

// bracket finds the frames whose valid regions most tightly enclose the
// target: lower has the greatest hi < t, upper the smallest lo > t.
// A frame whose region contains t cannot exist (t would be resolved).
func bracket(frames []frame, t int) (lower, upper *frame) {
	for i := range frames {
		fr := &frames[i]
		if fr.hi < t && (lower == nil || fr.hi > lower.hi) {
			lower = fr
		}
		if fr.lo > t && (upper == nil || fr.lo < upper.lo) {
			upper = fr
		}
	}
	return lower, upper
}
