package core

import (
	"errors"
	"fmt"
)

// The generation-failure taxonomy. Every failure the adaptive loop can
// diagnose carries one of these sentinels in its chain, so callers
// dispatch with errors.Is and recover per-failure diagnostics with
// errors.As on the concrete types below. Under Config.AllowDegraded the
// same failures are converted into a degraded partial Result instead
// (quality tier TierDegraded, with the fault events in
// Result.Quality.Events).
var (
	// ErrSingularPoint marks a point evaluation that returned a
	// non-finite value: the scaled unit-circle point landed on a system
	// pole (singular factorization) or the solve overflowed. Details in
	// *SingularPointError.
	ErrSingularPoint = errors.New("singular evaluation point")
	// ErrFrameFailed marks an interpolation frame that kept hitting
	// singular points through every retry with perturbed geometry.
	// Details in *FrameError; the chain also matches ErrSingularPoint.
	ErrFrameFailed = errors.New("interpolation frame failed")
	// ErrStall marks the stall watchdog: Config.WatchdogStall consecutive
	// completed frames resolved no coefficient. Details in *StallError.
	ErrStall = errors.New("valid-region advance stalled")
	// ErrScaleDivergence marks the divergence watchdog: a proposed scale
	// pair was non-finite, non-positive, or drifted beyond
	// Config.MaxScaleDriftLog10 decades from the seed pair. Details in
	// *ScaleDivergenceError.
	ErrScaleDivergence = errors.New("scale factors diverged")
	// ErrIterationBudget marks Config.MaxIterations exhaustion with
	// coefficients still Unknown. Details in *BudgetError.
	ErrIterationBudget = errors.New("iteration budget exhausted")
)

// SingularPointError reports one failed point solve within a frame.
type SingularPointError struct {
	// Name labels the polynomial.
	Name string
	// Point is the (possibly rotated) unit-circle evaluation point.
	Point complex128
	// Index is the point's position within its frame's dispatch order.
	Index int
	// FScale, GScale are the frame's scale factors.
	FScale, GScale float64
	// NaN is true for a NaN result (failed/singular solve) and false for
	// an infinite one (overflow or corruption).
	NaN bool
}

func (e *SingularPointError) Error() string {
	kind := "non-finite"
	if e.NaN {
		kind = "singular (NaN)"
	}
	return fmt.Sprintf("core: %s: %s solve at point %d (s = %.6g%+.6gi, fscale=%.4g, gscale=%.4g)",
		e.Name, kind, e.Index, real(e.Point), imag(e.Point), e.FScale, e.GScale)
}

func (e *SingularPointError) Unwrap() error { return ErrSingularPoint }

// FrameError reports an interpolation frame that failed its original
// attempt and every perturbed-geometry retry.
type FrameError struct {
	// Name labels the polynomial.
	Name string
	// Purpose is the frame's purpose tag ("initial", "up", "down",
	// "repair").
	Purpose string
	// FScale, GScale are the frame's scale factors.
	FScale, GScale float64
	// Attempts counts evaluation attempts, the original plus retries.
	Attempts int
	// Last is the final attempt's *SingularPointError.
	Last error
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("core: %s: %s frame (fscale=%.4g, gscale=%.4g) failed after %d attempts with rotated points: %v",
		e.Name, e.Purpose, e.FScale, e.GScale, e.Attempts, e.Last)
}

func (e *FrameError) Unwrap() []error { return []error{ErrFrameFailed, e.Last} }

// StallError reports the stall watchdog firing.
type StallError struct {
	// Name labels the polynomial.
	Name string
	// Target is the coefficient index being pursued when the watchdog
	// fired.
	Target int
	// Frames is the count of consecutive completed frames that resolved
	// nothing.
	Frames int
}

func (e *StallError) Error() string {
	return fmt.Sprintf("core: %s: %d consecutive frames resolved nothing while pursuing coefficient s^%d",
		e.Name, e.Frames, e.Target)
}

func (e *StallError) Unwrap() error { return ErrStall }

// ScaleDivergenceError reports the divergence watchdog firing on a
// proposed scale pair.
type ScaleDivergenceError struct {
	// Name labels the polynomial.
	Name string
	// Target is the coefficient index the proposal aimed at.
	Target int
	// FScale, GScale are the rejected proposal.
	FScale, GScale float64
	// InitF, InitG are the seed scales drift is measured against.
	InitF, InitG float64
	// DriftLog10 is max(|log10(f/f0)|, |log10(g/g0)|), NaN when the
	// proposal itself was non-finite or non-positive.
	DriftLog10 float64
	// BoundLog10 is the configured bound (0 when only finiteness was
	// enforced).
	BoundLog10 float64
}

func (e *ScaleDivergenceError) Error() string {
	if !(e.FScale > 0) || !(e.GScale > 0) {
		return fmt.Sprintf("core: %s: proposed scale pair (fscale=%g, gscale=%g) is not positive and finite, pursuing coefficient s^%d",
			e.Name, e.FScale, e.GScale, e.Target)
	}
	return fmt.Sprintf("core: %s: proposed scales (fscale=%.4g, gscale=%.4g) drift %.1f decades from seeds (fscale=%.4g, gscale=%.4g), bound %.0f, pursuing coefficient s^%d",
		e.Name, e.FScale, e.GScale, e.DriftLog10, e.InitF, e.InitG, e.BoundLog10, e.Target)
}

func (e *ScaleDivergenceError) Unwrap() error { return ErrScaleDivergence }

// BudgetError reports budget exhaustion: the iteration budget
// (Config.MaxIterations, a result setting) or the solve budget
// (Config.MaxSolves, an execution limit). Both unwrap to
// ErrIterationBudget; Kind tells them apart.
type BudgetError struct {
	// Name labels the polynomial.
	Name string
	// Budget is the configured Config.MaxIterations (meaningful for the
	// "iterations" kind; Limit carries the tripped bound for both kinds).
	Budget int
	// Target is the smallest coefficient index still Unknown, or -1 when
	// the budget tripped outside target pursuit (inside a frame dispatch
	// or a warm replay).
	Target int
	// Kind names the exhausted budget: "iterations" or "solves". Empty
	// means "iterations" (the historical constructor).
	Kind string
	// Used and Limit are the resource total that tripped the bound and
	// the configured bound itself, in the Kind's unit.
	Used, Limit int64
}

func (e *BudgetError) Error() string {
	if e.Kind == "solves" {
		return fmt.Sprintf("core: %s: solve budget (%d) exhausted: next frame would reach %d point solves",
			e.Name, e.Limit, e.Used)
	}
	return fmt.Sprintf("core: %s: iteration budget (%d) exhausted with coefficient s^%d unresolved",
		e.Name, e.Budget, e.Target)
}

func (e *BudgetError) Unwrap() error { return ErrIterationBudget }

// taxonomyError reports whether err belongs to the generation-failure
// taxonomy — the class AllowDegraded may convert into a partial Result.
// Context cancellation and setup errors are not in it.
func taxonomyError(err error) bool {
	for _, sentinel := range []error{ErrSingularPoint, ErrFrameFailed, ErrStall, ErrScaleDivergence, ErrIterationBudget} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}
