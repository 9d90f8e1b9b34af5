// Package check validates generated numerical references against the
// algorithm's own contracts. It is the machine-checked correctness layer
// behind cmd/checkrun, the fuzz targets and the CI quality gates: every
// performance-oriented change to the generation pipeline is expected to
// keep these invariants green.
//
// The invariants come straight from the paper and the package contracts:
//
//   - every coefficient ends classified (Valid or Negligible) — the
//     regions of successive interpolations tile the whole index range;
//   - scale factors drift less than ~1e18 from their seeds (§3.2:
//     simultaneous scaling exists precisely to avoid larger factors,
//     which inflate evaluation error);
//   - the homogeneity law p'_i = p_i·f^i·g^(M−i) (eq. 11) links every
//     iteration's normalized window to the accepted coefficients;
//   - serial and parallel runs are bit-identical (the PR-1 guarantee);
//   - no coefficient outside the evaluator's structural degree window is
//     Valid, and every one there is an exact structural zero;
//   - recovered polynomials agree with the exact Bareiss oracle where it
//     is tractable, and the reconstructed Bode response matches an
//     independent MNA AC solve everywhere (the paper's Fig. 2).
package check

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/xmath"
)

// Violation is one failed invariant.
type Violation struct {
	// Invariant is a short stable identifier ("classified", "scale",
	// "tiling", "homogeneity", "parity", "oracle", "bode", ...).
	Invariant string
	// Detail is the human-readable failure description.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Report accumulates the outcome of a batch of invariant checks.
type Report struct {
	// Checks counts individual assertions evaluated (passed or failed).
	Checks int
	// Violations holds every failed assertion.
	Violations []Violation
}

// Ok reports whether every assertion passed.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Err returns nil when the report is clean, or an error summarizing the
// first violation (and the total count).
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	return fmt.Errorf("check: %d of %d assertions failed; first: %s",
		len(r.Violations), r.Checks, r.Violations[0])
}

// Merge folds another report's counters and violations into r.
func (r *Report) Merge(o *Report) {
	r.Checks += o.Checks
	r.Violations = append(r.Violations, o.Violations...)
}

// String summarizes the report, listing up to ten violations.
func (r *Report) String() string {
	if r.Ok() {
		return fmt.Sprintf("check: ok (%d assertions)", r.Checks)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d of %d assertions FAILED", len(r.Violations), r.Checks)
	for i, v := range r.Violations {
		if i == 10 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(r.Violations)-10)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return b.String()
}

// assert evaluates one assertion, recording a violation when cond is
// false.
func (r *Report) assert(cond bool, invariant, format string, args ...any) {
	r.Checks++
	if !cond {
		r.Violations = append(r.Violations, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}
}

// Options tunes the invariant thresholds. The zero value selects the
// paper's parameters.
type Options struct {
	// SigDigits is the σ the run used (0 selects 6). It sets the default
	// cross-frame agreement tolerance.
	SigDigits int
	// MaxScaleLog10 bounds the scaling drift |log10(f/f₀)| and
	// |log10(g/g₀)| of every iteration relative to the initial scale pair
	// (0 selects 18, the paper's "too large (>~1e18)" threshold). The
	// initial scales themselves absorb the circuit's element magnitudes
	// (1/mean C is ~1e12 for pF-class circuits); what the simultaneous
	// √q split of eq. (13) bounds is the adjustment on top — the
	// single-factor ablation exceeds this bound exactly as §3.2 warns.
	MaxScaleLog10 float64
	// HomogeneityTol is the relative tolerance for the eq. (11) law
	// between an iteration's normalized window and the accepted
	// coefficients (0 selects 10^(3−σ): boundary coefficients carry
	// exactly σ digits and frames may disagree in the last few).
	HomogeneityTol float64
}

func (o Options) withDefaults() Options {
	if o.SigDigits == 0 {
		o.SigDigits = 6
	}
	if o.MaxScaleLog10 == 0 {
		o.MaxScaleLog10 = 18
	}
	if o.HomogeneityTol == 0 {
		o.HomogeneityTol = math.Pow(10, float64(3-o.SigDigits))
	}
	return o
}

// Result validates the structural invariants of one generated result.
// m is the homogeneity degree of the evaluator that produced it (the
// matrix order for cofactor evaluators; 0 for MNA evaluators, which
// disables the conductance part of the homogeneity law but not the
// frequency part). The report is self-contained; callers Merge it or
// test Ok.
func Result(res *core.Result, m int, opt Options) *Report {
	opt = opt.withDefaults()
	rep := &Report{}
	n := len(res.Coeffs) - 1

	// Contract: overlap cross-checks between frames never disagree.
	rep.assert(res.Disagreements == 0, "overlap",
		"%s: %d overlap disagreements (want 0)", res.Name, res.Disagreements)

	// Per-iteration invariants: scale bounds and region geometry. Drift
	// is measured against the first iteration's scales, which seed the
	// run (1/mean C, 1/mean G or explicit config).
	f0, g0 := 1.0, 1.0
	if len(res.Iterations) > 0 {
		f0, g0 = res.Iterations[0].FScale, res.Iterations[0].GScale
	}
	for k, it := range res.Iterations {
		rep.assert(it.FScale > 0 && !math.IsInf(it.FScale, 0) && !math.IsNaN(it.FScale),
			"scale", "%s it%d: fscale %g not positive finite", res.Name, k, it.FScale)
		rep.assert(it.GScale > 0 && !math.IsInf(it.GScale, 0) && !math.IsNaN(it.GScale),
			"scale", "%s it%d: gscale %g not positive finite", res.Name, k, it.GScale)
		if it.FScale > 0 && it.GScale > 0 && f0 > 0 && g0 > 0 {
			df, dg := math.Log10(it.FScale/f0), math.Log10(it.GScale/g0)
			rep.assert(math.Abs(df) <= opt.MaxScaleLog10 && math.Abs(dg) <= opt.MaxScaleLog10,
				"scale", "%s it%d: scaling drift beyond 1e±%g (f=%.3g, g=%.3g, initial f=%.3g, g=%.3g)",
				res.Name, k, opt.MaxScaleLog10, it.FScale, it.GScale, f0, g0)
		}
		rep.assert(it.K >= 1 && it.Offset >= 0 && it.Offset+it.K <= n+1,
			"window", "%s it%d: window [%d,%d) outside 0..%d", res.Name, k, it.Offset, it.Offset+it.K, n)
		if it.Lo <= it.Hi {
			rep.assert(it.Lo >= it.Offset && it.Hi < it.Offset+it.K,
				"region", "%s it%d: region s^%d..s^%d escapes window [%d,%d)",
				res.Name, k, it.Lo, it.Hi, it.Offset, it.Offset+it.K)
		}
	}

	// Per-coefficient invariants: classification, provenance, tiling.
	for i, c := range res.Coeffs {
		switch c.Status {
		case core.Valid:
			rep.assert(c.Iteration >= 0 && c.Iteration < len(res.Iterations),
				"provenance", "%s s^%d: resolving iteration %d out of range", res.Name, i, c.Iteration)
			if c.Value.Zero() {
				// Identically-zero polynomial: legal, not region-covered.
				continue
			}
			rep.assert(c.Quality >= -1e-9, "quality",
				"%s s^%d: negative quality %g on a valid coefficient", res.Name, i, c.Quality)
			if c.Iteration >= 0 && c.Iteration < len(res.Iterations) {
				it := res.Iterations[c.Iteration]
				inRegion := it.Lo <= it.Hi && i >= it.Lo && i <= it.Hi
				deflated := it.Subtracted != nil && i < len(it.Subtracted) && it.Subtracted[i]
				rep.assert(inRegion && !deflated, "tiling",
					"%s s^%d: valid coefficient outside the valid region s^%d..s^%d of its resolving iteration %d",
					res.Name, i, it.Lo, it.Hi, c.Iteration)
			}
		case core.Negligible:
			rep.assert(c.Bound.Sign() >= 0, "bound",
				"%s s^%d: negative negligibility bound %v", res.Name, i, c.Bound)
			if c.Structural() {
				rep.assert(c.Bound.Zero(), "structural",
					"%s s^%d: structural zero carries bound %v (want exactly 0)", res.Name, i, c.Bound)
			}
		default:
			rep.assert(false, "classified", "%s s^%d: unresolved coefficient", res.Name, i)
		}
	}

	// Quality contract: the report carries one error bar per
	// coefficient, consistent with the classification; the result tier
	// is the minimum coefficient tier (degraded dominates); and the
	// event log is sorted by frame index — the determinism the wire
	// format and the serial/parallel parity guarantee depend on.
	q := &res.Quality
	rep.assert(len(q.Coefficients) == len(res.Coeffs), "quality",
		"%s: %d error bars for %d coefficients", res.Name, len(q.Coefficients), len(res.Coeffs))
	certTol := math.Pow(10, float64(3-opt.SigDigits))
	minTier := core.TierExact
	for i, c := range res.Coeffs {
		if i >= len(q.Coefficients) {
			break
		}
		bar := q.Coefficients[i]
		if bar.Tier < minTier {
			minTier = bar.Tier
		}
		switch c.Status {
		case core.Valid, core.Negligible:
			if q.Tier != core.TierDegraded {
				rep.assert(bar.Tier >= core.TierNumeric, "quality",
					"%s s^%d: resolved coefficient graded %v in a non-degraded result", res.Name, i, bar.Tier)
			}
		default:
			rep.assert(bar.Tier == core.TierDegraded, "quality",
				"%s s^%d: unresolved coefficient graded %v", res.Name, i, bar.Tier)
		}
		rep.assert(bar.RelError >= 0 && !math.IsInf(bar.RelError, 0) && !math.IsNaN(bar.RelError),
			"quality", "%s s^%d: relative error %g not finite and non-negative", res.Name, i, bar.RelError)
		if c.Structural() {
			rep.assert(bar.Tier == core.TierExact, "structural",
				"%s s^%d: structural zero graded %v (want exact)", res.Name, i, bar.Tier)
		}
		switch bar.Tier {
		case core.TierExact:
			rep.assert(bar.RelError == 0, "quality",
				"%s s^%d: exact coefficient carries error bar %g", res.Name, i, bar.RelError)
		case core.TierCertified:
			rep.assert(bar.RelError <= certTol, "quality",
				"%s s^%d: certified error bar %g above the certification tolerance %g",
				res.Name, i, bar.RelError, certTol)
		}
	}
	if q.Tier != core.TierDegraded && len(q.Coefficients) == len(res.Coeffs) && len(res.Coeffs) > 0 {
		rep.assert(q.Tier == minTier, "quality",
			"%s: report tier %v, minimum coefficient tier %v", res.Name, q.Tier, minTier)
	}
	for i := 1; i < len(q.Events); i++ {
		rep.assert(q.Events[i-1].Frame <= q.Events[i].Frame, "quality",
			"%s: quality events out of frame order at %d (%d after %d)",
			res.Name, i, q.Events[i].Frame, q.Events[i-1].Frame)
	}
	for i, ev := range q.Events {
		rep.assert(ev.Detail != "", "quality", "%s: event %d (%s) has no detail", res.Name, i, ev.Kind)
	}

	// Homogeneity (eq. 11): inside every iteration's valid region the
	// normalized coefficient must equal the accepted denormalized value
	// re-scaled by f^i·g^(M−i); deflated slots carry residue and are
	// exempt, and every non-deflated region slot must have ended Valid —
	// except structural zeros, which no frame may resolve (see Window).
	for k, it := range res.Iterations {
		if it.Lo > it.Hi {
			continue
		}
		xf, xg := xmath.FromFloat(it.FScale), xmath.FromFloat(it.GScale)
		for i := it.Lo; i <= it.Hi && i <= n; i++ {
			if it.Subtracted != nil && i < len(it.Subtracted) && it.Subtracted[i] {
				continue
			}
			c := res.Coeffs[i]
			if c.Structural() {
				continue
			}
			rep.assert(c.Status == core.Valid, "tiling",
				"%s s^%d: inside region of it%d but classified %v", res.Name, i, k, c.Status)
			if c.Status != core.Valid || c.Value.Zero() {
				continue
			}
			want := c.Value.Mul(xf.PowInt(i)).Mul(xg.PowInt(m - i))
			rep.assert(it.Normalized[i].ApproxEqual(want, opt.HomogeneityTol), "homogeneity",
				"%s it%d s^%d: normalized %v vs p_i·f^i·g^(M−i) = %v (rel tol %.1g)",
				res.Name, k, i, it.Normalized[i], want, opt.HomogeneityTol)
		}
	}
	return rep
}

// Window validates a result against the structural degree window of
// the evaluator that produced it (interp.Evaluator.DegreeWindow): no
// Valid coefficient lies outside the window, every coefficient outside
// it is a structural zero, and no coefficient inside it is one. An
// evaluator without a window proves nothing, so the whole range
// [0, OrderBound] is inside.
func Window(res *core.Result, ev interp.Evaluator, rep *Report) {
	lo, hi := ev.DegreeWindow()
	for i, c := range res.Coeffs {
		inside := i >= lo && i <= hi
		rep.assert(inside || c.Status != core.Valid, "structural",
			"%s s^%d: valid %v outside the structural window [%d, %d]", res.Name, i, c.Value, lo, hi)
		rep.assert(inside || c.Structural(), "structural",
			"%s s^%d: %v coefficient outside the structural window [%d, %d] is not a structural zero",
			res.Name, i, c.Status, lo, hi)
		rep.assert(!inside || !c.Structural(), "structural",
			"%s s^%d: structural zero inside the structural window [%d, %d]", res.Name, i, lo, hi)
	}
}
