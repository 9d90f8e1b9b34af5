package core

import (
	"errors"
	"fmt"
	"math"
)

// Warm-started generation replays the converged scale schedule of a
// previous run on a neighboring design point instead of rediscovering it
// frame by frame. The insight: of a cold run's iterations, only the
// contributing ones — frames that resolved or revised coefficients, or
// whose evidence classified a target Negligible — ever touched the
// result. The discovery frames in between (stalled aims, overshoots,
// failed retries) left the coefficient state untouched, so replaying just
// the contributing frames on the same point reproduces the cold result's
// values bit for bit, and replaying them on a slightly perturbed point
// reproduces its classification at a fraction of the solve count.
//
// A schedule that no longer fits — a different window geometry, scales
// drifted past Config.MaxScaleDriftLog10 from the current seed pair, a
// degraded prior — is refused up front, and a replay whose frames start
// failing is aborted; both paths fall back to a full cold start, with the
// reason recorded as a cold-fallback quality event (Result.ColdFallback).

// ScheduleFrame is one contributing interpolation of a converged run: the
// scale pair, the retry geometry it succeeded with, and the targets its
// evidence classified Negligible.
type ScheduleFrame struct {
	// FScale, GScale are the frame's scale factors.
	FScale, GScale float64
	// Purpose labels the frame ("initial", "up", "down", "repair").
	Purpose string
	// Attempt is the retry-geometry index the frame succeeded with.
	Attempt int
	// Negligible lists the coefficient indices the frame's evidence
	// classified Negligible, in classification order.
	Negligible []int
}

// Schedule is the replayable distillation of one polynomial's converged
// generation. Extract it from a Result with Result.Schedule and pass it
// to the next point through Config.WarmStart.
type Schedule struct {
	// Name is the polynomial's evaluator name; a replay only applies to
	// an evaluator with the same name.
	Name string
	// M and OrderBound pin the window geometry the schedule was recorded
	// against (eq. 11's homogeneity degree and the coefficient count − 1).
	M, OrderBound int
	// SigDigits is the σ the classifications were made at.
	SigDigits int
	// SeedFScale, SeedGScale are the recorded run's initial scale pair —
	// diagnostic only; drift is checked against the replaying run's seeds.
	SeedFScale, SeedGScale float64
	// Degraded marks a schedule extracted from a degraded result; it is
	// never replayed.
	Degraded bool
	// Frames are the contributing frames, in execution order.
	Frames []ScheduleFrame
}

// WarmStart carries the per-polynomial schedules of a prior generation,
// matched to a run by evaluator name (Config.WarmStart). Either slot may
// be nil; a run whose evaluator matches neither schedule starts cold.
type WarmStart struct {
	Num, Den *Schedule
}

// forName returns the schedule recorded for the named polynomial.
func (ws *WarmStart) forName(name string) *Schedule {
	switch {
	case ws == nil:
		return nil
	case ws.Num != nil && ws.Num.Name == name:
		return ws.Num
	case ws.Den != nil && ws.Den.Name == name:
		return ws.Den
	}
	return nil
}

// Schedule extracts the replayable schedule of a completed run: the
// frames that contributed evidence (resolved, revised or classified a
// coefficient, plus the initial frame that anchors every bracket), with
// discovery and stall frames dropped. Schedules extracted from
// warm-started results chain: they are themselves replayable.
func (r *Result) Schedule() *Schedule {
	s := &Schedule{
		Name:       r.Name,
		M:          r.M,
		OrderBound: len(r.Coeffs) - 1,
		SigDigits:  r.SigDigits,
		SeedFScale: r.SeedFScale,
		SeedGScale: r.SeedGScale,
		Degraded:   r.Degraded(),
	}
	for i, it := range r.Iterations {
		if i > 0 && !it.contributing() {
			continue
		}
		s.Frames = append(s.Frames, ScheduleFrame{
			FScale:     it.FScale,
			GScale:     it.GScale,
			Purpose:    it.Purpose,
			Attempt:    it.Attempt,
			Negligible: append([]int(nil), it.Negligible...),
		})
	}
	return s
}

// contributing reports whether an iteration changed the coefficient
// state: it resolved or revised a coefficient, or its evidence
// classified a target Negligible. A Schedule keeps exactly these frames
// (and the initial one).
func (it *Iteration) contributing() bool {
	return it.NewValid > 0 || it.Revised > 0 || len(it.Negligible) > 0
}

// errColdRestart signals GenerateContext that a warm replay aborted
// mid-flight and the whole run must restart cold; it never escapes the
// package (generator.restart carries the reason).
var errColdRestart = errors.New("core: warm replay aborted")

// warmSchedule resolves the usable schedule for this run, recording the
// fallback reason when a warm start was requested but refused.
func (g *generator) warmSchedule() *Schedule {
	if g.cfg.WarmStart == nil {
		return nil
	}
	sched := g.cfg.WarmStart.forName(g.res.Name)
	if sched == nil {
		g.coldFallback(fmt.Sprintf("no schedule for polynomial %q", g.res.Name))
		return nil
	}
	if reason := g.checkSchedule(sched); reason != "" {
		g.coldFallback(reason)
		return nil
	}
	return sched
}

// coldFallback records the reason a requested warm start was refused and
// the run proceeds cold.
func (g *generator) coldFallback(reason string) {
	g.res.AddEvent(QualityEvent{Kind: EventColdFallback, Frame: -1, Target: -1, Detail: reason})
}

// checkSchedule pre-validates a schedule against this run's evaluator and
// configuration. It returns the fallback reason, or "" when the schedule
// is replayable. The drift bound is the divergence watchdog's
// (Config.MaxScaleDriftLog10), measured against this run's seed pair —
// the same invariant checkProposal enforces on cold proposals.
func (g *generator) checkSchedule(s *Schedule) string {
	switch {
	case s.Degraded:
		return "degraded prior point"
	case len(s.Frames) == 0:
		return "empty schedule"
	case s.OrderBound != g.n || s.M != g.ev.M:
		return fmt.Sprintf("window mismatch: schedule for order %d (M=%d), evaluator has order %d (M=%d)",
			s.OrderBound, s.M, g.n, g.ev.M)
	case s.SigDigits != g.cfg.SigDigits:
		return fmt.Sprintf("precision mismatch: schedule at σ=%d, run at σ=%d", s.SigDigits, g.cfg.SigDigits)
	}
	for i, wf := range s.Frames {
		if !(wf.FScale > 0) || !(wf.GScale > 0) ||
			math.IsInf(wf.FScale, 0) || math.IsInf(wf.GScale, 0) {
			return fmt.Sprintf("non-finite or non-positive scales in replay frame %d", i)
		}
		if bound := g.cfg.MaxScaleDriftLog10; bound > 0 {
			drift := math.Max(
				math.Abs(math.Log10(wf.FScale/g.cfg.InitFScale)),
				math.Abs(math.Log10(wf.GScale/g.cfg.InitGScale)))
			if drift > bound {
				return fmt.Sprintf("schedule drift %.2f decades past bound %.2f at replay frame %d", drift, bound, i)
			}
		}
	}
	return ""
}

// replay runs the schedule's frames in order. Dropped cold-run frames
// never modified the coefficient state, so on the recorded point the
// window/deflation evolution — and with it every value — replays bit for
// bit; on a perturbed point the same frames re-classify the perturbed
// coefficients. A frame that fails all its retries aborts the replay with
// errColdRestart (generator.restart carries the reason); cancellation and
// budget exhaustion behave exactly as in a cold run. done reports that
// generation already completed during replay (identically-zero
// polynomial, or a degraded budget stop).
func (g *generator) replay(sched *Schedule) (frames []frame, done bool, err error) {
	for fi, wf := range sched.Frames {
		if g.frames >= g.cfg.MaxIterations {
			return nil, true, g.failure(&BudgetError{
				Name: g.res.Name, Budget: g.cfg.MaxIterations, Target: -1,
				Kind: "iterations", Used: int64(g.frames), Limit: int64(g.cfg.MaxIterations),
			}, -1)
		}
		fr, err := g.interpolateRetry(wf.FScale, wf.GScale, wf.Purpose, -1, wf.Attempt)
		if err != nil {
			var ferr *FrameError
			if errors.As(err, &ferr) {
				g.restart = fmt.Sprintf("replay frame %d/%d (%s) failed after retries", fi+1, len(sched.Frames), wf.Purpose)
				return nil, false, errColdRestart
			}
			if errors.Is(err, ErrIterationBudget) {
				// The solve budget tripped mid-replay: resolve it exactly
				// as a cold run would (a degraded partial Result) rather
				// than falling back to a cold start.
				return nil, true, g.failure(err, -1)
			}
			return nil, false, err
		}
		if fi == 0 && fr.lo > fr.hi {
			// The replayed initial frame covers the full window; an empty
			// valid region there means the polynomial is identically zero
			// (same classification as the cold path).
			g.markIdenticallyZero()
			return nil, true, nil
		}
		if fr.lo <= fr.hi {
			frames = append(frames, fr)
		}
		for _, t := range wf.Negligible {
			if g.inWindow(t) && g.res.Coeffs[t].Status == Unknown {
				g.markNegligible(t, fr)
			}
		}
		g.settle(&fr)
	}
	if len(frames) == 0 {
		g.restart = "replay produced no valid regions"
		return nil, false, errColdRestart
	}
	return frames, false, nil
}

// CoefficientsEqual reports whether two coefficient sets carry the same
// classification payload bit for bit: status, value, bound and quality.
// The Iteration provenance index is excluded — a warm replay reaches the
// same values in fewer frames, so the indexes legitimately differ.
func CoefficientsEqual(a, b []Coefficient) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Status != b[i].Status || a[i].Value != b[i].Value ||
			a[i].Bound != b[i].Bound || a[i].Quality != b[i].Quality {
			return false
		}
	}
	return true
}
