package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/poly"
	"repro/internal/xmath"
)

// Status classifies one coefficient of the result.
type Status int

// Coefficient states.
const (
	// Unknown: never resolved (only present when the iteration budget ran
	// out or generation was canceled; Generate returns an error alongside).
	Unknown Status = iota
	// Valid: value carries at least σ significant digits.
	Valid
	// Negligible: below the noise floor in every frame aimed at it; Bound
	// is a proven upper bound on its magnitude. A structural zero — an
	// index outside the evaluator's degree window — is Negligible too,
	// with Bound exactly zero and no evidence iteration (see
	// Coefficient.Structural).
	Negligible
)

func (s Status) String() string {
	switch s {
	case Valid:
		return "valid"
	case Negligible:
		return "negligible"
	}
	return "unknown"
}

// Coefficient is one resolved network-function coefficient.
type Coefficient struct {
	Status Status
	// Value is the denormalized coefficient (Valid only).
	Value xmath.XFloat
	// Bound is an upper bound on the magnitude (Negligible only).
	Bound xmath.XFloat
	// Quality is the number of decimal digits the coefficient stood above
	// the validity threshold when accepted.
	Quality float64
	// Iteration is the 0-based interpolation that resolved it; −1 for a
	// structural zero, which no interpolation resolved.
	Iteration int
}

// Structural reports whether the coefficient is a structural zero: it
// lies outside the evaluator's proven degree window
// (interp.Evaluator.Degrees), so it is exactly zero without evidence —
// Negligible with a zero bound and no resolving iteration.
func (c Coefficient) Structural() bool {
	return c.Status == Negligible && c.Iteration < 0
}

// Iteration records one interpolation run for diagnostics and the
// paper-table reproductions. It is also the payload of the per-iteration
// observer hook (Config.Observer).
type Iteration struct {
	// Purpose is "initial", "up", "down" or "repair".
	Purpose string
	// FScale, GScale are the scale factors used.
	FScale, GScale float64
	// K is the number of interpolation points (shrinks under eq. 17).
	K int
	// Offset is the absolute index of the window's first coefficient.
	Offset int
	// Normalized holds the window's normalized coefficients in the
	// absolute index frame (entries outside [Offset, Offset+K) are zero).
	Normalized poly.XPoly
	// Lo, Hi delimit the valid region in absolute indices; Lo > Hi means
	// no region was found (all-zero window).
	Lo, Hi int
	// Subtracted marks absolute indices deflated out of this
	// interpolation per eq. (17): their Normalized slots hold subtraction
	// residue, not signal. Nil when the full point set was used.
	Subtracted []bool
	// NewValid counts coefficients first resolved by this iteration.
	NewValid int
	// Elapsed is the wall-clock cost of the interpolation.
	Elapsed time.Duration
	// Solves is the number of evaluation-point solves this iteration
	// dispatched: the non-redundant half of the window plus guard points
	// under the Hermitian mirroring scheme, the full window with
	// Config.NoMirror.
	Solves int
	// EvalElapsed is the wall-clock cost of the point evaluations alone —
	// the part the Parallelism knob accelerates.
	EvalElapsed time.Duration
	// Attempt is the retry-geometry index the frame succeeded with (0 on
	// a first-try success; see Config.FrameRetries for the geometry).
	Attempt int
	// CondLog10 is the frame's condition estimate in decades: log10 of
	// the largest magnitude entering the inverse transform over the error
	// base the σ-classifier assumed (0 when the noise model held — see
	// ErrorBar.CondLog10).
	CondLog10 float64
	// DriftLog10 is the frame's scale drift from the seed pair,
	// max(|log10(f/f0)|, |log10(g/g0)|) in decades.
	DriftLog10 float64
	// Revised counts coefficients whose stored value this iteration
	// changed beyond NewValid: quality-based replacements of Valid
	// entries plus Negligible entries upgraded to Valid.
	Revised int
	// Negligible lists the targets this iteration's evidence classified
	// Negligible (filled by the stall escape after the frame completes,
	// so the Observer sees the Iteration before the list is attached).
	Negligible []int
}

// Result is the generated numerical reference for one polynomial.
type Result struct {
	// Name labels the polynomial (from the evaluator).
	Name string
	// Coeffs holds one entry per power of s, 0..OrderBound.
	Coeffs []Coefficient
	// Iterations records every interpolation run, in order.
	Iterations []Iteration
	// Disagreements counts overlap cross-checks that exceeded tolerance
	// (diagnostic; should be 0).
	Disagreements int
	// TotalSolves is the total number of evaluation-point solves across
	// all iterations — the unit of work the batch layer parallelizes.
	// With the joint cache active, CacheHits of them were served without
	// a factorization, so the matrix work is TotalSolves − CacheHits.
	TotalSolves int
	// CacheHits and CacheMisses count joint-cache outcomes attributed to
	// this polynomial's pass (GenerateTransferFunction only; both zero
	// when the cache is off). A hit reuses a factorization already paid
	// for; a miss is a distinct (s, fscale, gscale) evaluation.
	CacheHits, CacheMisses int
	// EvalElapsed is the total wall-clock time spent in point
	// evaluations across all iterations.
	EvalElapsed time.Duration
	// Parallelism is the resolved worker count the run used (≥ 1).
	Parallelism int
	// Quality is the unified quality-of-result contract: the earned tier,
	// one error bar per coefficient, and every fault, warning and
	// fallback event observed during generation sorted by frame index.
	Quality QualityReport
	// FrameRetries counts frame attempts that were re-dispatched with
	// perturbed evaluation geometry after a singular point solve.
	FrameRetries int
	// FailedFrames counts frames abandoned after exhausting their retry
	// budget.
	FailedFrames int
	// M is the homogeneity degree of the evaluator the run used (the M of
	// eq. 11); Schedule carries it so a replay can reject a mismatched
	// window geometry.
	M int
	// SigDigits, SeedFScale and SeedGScale record the resolved σ and
	// initial scale pair of the run (after defaults and the heuristic
	// fill), the reference frame for schedule drift checks.
	SigDigits  int
	SeedFScale float64
	SeedGScale float64
	// WarmStarted reports that the run replayed a prior point's schedule
	// (Config.WarmStart) instead of discovering its own; ReplayedFrames
	// is the number of iterations the replay phase ran. A refused or
	// aborted warm start instead records an EventColdFallback quality
	// event (see Result.ColdFallback).
	WarmStarted    bool
	ReplayedFrames int
}

// Poly returns the coefficients as an extended-range polynomial
// (Negligible and Unknown entries are zero).
func (r *Result) Poly() poly.XPoly {
	p := make(poly.XPoly, len(r.Coeffs))
	for i, c := range r.Coeffs {
		if c.Status == Valid {
			p[i] = c.Value
		}
	}
	return p
}

// Order returns the index of the highest Valid nonzero coefficient
// (-1 for an all-negligible result) — the detected true polynomial order,
// generally below the a-priori bound.
func (r *Result) Order() int {
	for i := len(r.Coeffs) - 1; i >= 0; i-- {
		if r.Coeffs[i].Status == Valid && !r.Coeffs[i].Value.Zero() {
			return i
		}
	}
	return -1
}

// StructuralWindow returns the index range [lo, hi] between the
// result's structural zeros (Coefficient.Structural) and their count:
// the evaluator's structural degree window as the run applied it, the
// whole range [0, len(Coeffs)−1] with zeros == 0 when the evaluator
// proved none, and lo > hi when every coefficient is structural.
func (r *Result) StructuralWindow() (lo, hi, zeros int) {
	lo, hi = len(r.Coeffs), -1
	for i, c := range r.Coeffs {
		if c.Structural() {
			zeros++
			continue
		}
		lo, hi = min(lo, i), i
	}
	if hi < 0 {
		lo, hi = 1, 0
	}
	return lo, hi, zeros
}

// String summarizes the run.
func (r *Result) String() string {
	valid, negl, unknown := 0, 0, 0
	for _, c := range r.Coeffs {
		switch c.Status {
		case Valid:
			valid++
		case Negligible:
			negl++
		default:
			unknown++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: order ≤ %d", r.Name, len(r.Coeffs)-1)
	if lo, hi, zeros := r.StructuralWindow(); zeros > 0 {
		if lo <= hi {
			fmt.Fprintf(&b, ", structural window s^%d..s^%d", lo, hi)
		} else {
			b.WriteString(", structurally zero")
		}
	}
	fmt.Fprintf(&b, ", %d iterations, %d valid, %d negligible",
		len(r.Iterations), valid, negl)
	if unknown > 0 {
		fmt.Fprintf(&b, ", %d UNRESOLVED", unknown)
	}
	if r.Quality.Tier == TierDegraded {
		fmt.Fprintf(&b, ", DEGRADED (%d fault events)", r.Quality.CountEvents(EventFault))
	} else {
		fmt.Fprintf(&b, ", tier %s", r.Quality.Tier)
	}
	if r.TotalSolves > 0 {
		fmt.Fprintf(&b, ", %d solves in %v (×%d workers)", r.TotalSolves, r.EvalElapsed.Round(time.Microsecond), r.Parallelism)
	}
	return b.String()
}

// CoverageMap renders an ASCII picture of how the iterations tiled the
// coefficient range — one row per interpolation, one column per
// coefficient: '█' inside the valid region, '·' inside the evaluated
// window, ' ' outside. The paper's Tables 2–3 in one glance.
func (r *Result) CoverageMap() string {
	n := len(r.Coeffs)
	var b strings.Builder
	for i, it := range r.Iterations {
		fmt.Fprintf(&b, "%2d %-7s |", i, it.Purpose)
		for j := 0; j < n; j++ {
			switch {
			case it.Lo <= it.Hi && j >= it.Lo && j <= it.Hi:
				b.WriteRune('█')
			case j >= it.Offset && j < it.Offset+it.K:
				b.WriteRune('·')
			default:
				b.WriteRune(' ')
			}
		}
		b.WriteString("|\n")
	}
	b.WriteString("   status  |")
	for _, c := range r.Coeffs {
		switch c.Status {
		case Valid:
			b.WriteRune('█')
		case Negligible:
			b.WriteRune('0')
		default:
			b.WriteRune('?')
		}
	}
	b.WriteString("|\n")
	return b.String()
}
