package core

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/poly"
	"repro/internal/xmath"
)

// faultAt wraps ev so every evaluation point whose phase matches angle
// (within tol) solves to NaN — the core-level stand-in for a singular
// factorization pinned to an evaluation angle. Angle 0 is the +1 point
// present in every un-rotated frame, so it fails each frame's first
// attempt and heals on the first rotated retry.
func faultAt(ev interp.Evaluator, angle, tol float64) interp.Evaluator {
	hit := func(s complex128) bool {
		d := math.Abs(cmplx.Phase(s) - angle)
		if d > math.Pi {
			d = 2*math.Pi - d
		}
		return d <= tol
	}
	inner := ev
	ev.Eval = func(s complex128, f, g float64) xmath.XComplex {
		if hit(s) {
			return xmath.CNaN()
		}
		return inner.Eval(s, f, g)
	}
	if inner.EvalBatch != nil {
		ev.EvalBatch = func(ctx context.Context, pts []complex128, f, g float64, workers int) []xmath.XComplex {
			values := inner.EvalBatch(ctx, pts, f, g, workers)
			for i, s := range pts {
				if i < len(values) && hit(s) {
					values[i] = xmath.CNaN()
				}
			}
			return values
		}
	}
	return ev
}

// faultAlways wraps ev so every solve is singular.
func faultAlways(ev interp.Evaluator) interp.Evaluator {
	inner := ev
	ev.Eval = func(s complex128, f, g float64) xmath.XComplex {
		inner.Eval(s, f, g)
		return xmath.CNaN()
	}
	ev.EvalBatch = nil
	return ev
}

func TestRetryHealsPinnedSingularity(t *testing.T) {
	want := poly.NewX(1, -2, 3, -4, 5)
	ev := faultAt(interp.FromPoly("pinned", want, 5), 0, 1e-9)
	res, err := Generate(ev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkRecovery(t, res, want, 1e-10)
	if res.Degraded() {
		t.Error("healed run reported as degraded")
	}
	if res.FrameRetries == 0 {
		t.Error("no retries recorded although every frame's first attempt fails")
	}
	if len(res.Faults()) == 0 {
		t.Error("healed singular attempts left no failure events")
	}
	if res.FailedFrames != 0 {
		t.Errorf("FailedFrames = %d on a healed run, want 0", res.FailedFrames)
	}
	faults := res.Faults()
	var spe *SingularPointError
	if !errors.As(faults[0].Err, &spe) {
		t.Fatalf("logged event %v is not a *SingularPointError", faults[0].Err)
	}
	if !spe.NaN || !errors.Is(spe, ErrSingularPoint) {
		t.Errorf("event diagnostics wrong: NaN=%v Is(ErrSingularPoint)=%v", spe.NaN, errors.Is(spe, ErrSingularPoint))
	}
	// The budget is charged per dispatched frame, so it exceeds the
	// completed-iteration count by the retried attempts.
	if got := len(res.Iterations) + res.FrameRetries; res.TotalSolves == 0 || got <= len(res.Iterations) {
		t.Errorf("retry accounting inconsistent: %d iterations, %d retries", len(res.Iterations), res.FrameRetries)
	}
}

// TestRetryFaultSerialParallelParity pins the bit-identical
// serial-vs-parallel contract under a deterministic fault plan.
func TestRetryFaultSerialParallelParity(t *testing.T) {
	want := ua741Profile()
	mk := func() interp.Evaluator { return faultAt(interp.FromPoly("parity-fault", want, 49), 0, 1e-9) }
	cfg := Config{InitFScale: 1e8, InitGScale: 1}
	serialCfg := cfg
	serialCfg.Parallelism = 1
	a, err := Generate(mk(), serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Coeffs, b.Coeffs) {
		t.Error("coefficients differ between serial and parallel evaluation under faults")
	}
	if a.FrameRetries != b.FrameRetries || a.FailedFrames != b.FailedFrames ||
		a.Degraded() != b.Degraded() || len(a.Quality.Events) != len(b.Quality.Events) {
		t.Errorf("failure accounting differs: serial retries=%d failed=%d events=%d, parallel retries=%d failed=%d events=%d",
			a.FrameRetries, a.FailedFrames, len(a.Quality.Events),
			b.FrameRetries, b.FailedFrames, len(b.Quality.Events))
	}
	if a.FrameRetries == 0 {
		t.Error("fault plan never triggered a retry; parity test is vacuous")
	}
}

func TestAllSingularTypedError(t *testing.T) {
	want := poly.NewX(1, -2, 3)
	_, err := Generate(faultAlways(interp.FromPoly("dead", want, 3)), Config{})
	if err == nil {
		t.Fatal("generation over an always-singular evaluator succeeded")
	}
	if !errors.Is(err, ErrFrameFailed) {
		t.Errorf("err %v does not match ErrFrameFailed", err)
	}
	if !errors.Is(err, ErrSingularPoint) {
		t.Errorf("err %v does not unwrap to ErrSingularPoint", err)
	}
	var ferr *FrameError
	if !errors.As(err, &ferr) {
		t.Fatalf("err %v carries no *FrameError", err)
	}
	if ferr.Attempts != 3 { // 1 initial + FrameRetries(2)
		t.Errorf("Attempts = %d, want 3", ferr.Attempts)
	}
	var spe *SingularPointError
	if !errors.As(err, &spe) {
		t.Errorf("err %v carries no *SingularPointError diagnostics", err)
	}
}

func TestAllSingularDegraded(t *testing.T) {
	want := poly.NewX(1, -2, 3)
	res, err := Generate(faultAlways(interp.FromPoly("dead", want, 3)), Config{AllowDegraded: true})
	if err != nil {
		t.Fatalf("AllowDegraded returned an error: %v", err)
	}
	if !res.Degraded() {
		t.Error("result not marked degraded")
	}
	if len(res.Faults()) == 0 {
		t.Error("degraded result has an empty failure log")
	}
	if res.FailedFrames == 0 {
		t.Error("no failed frames counted")
	}
}

func TestRetriesDisabled(t *testing.T) {
	want := poly.NewX(1, -2, 3, -4, 5)
	ev := faultAt(interp.FromPoly("no-retries", want, 5), 0, 1e-9)
	_, err := Generate(ev, Config{FrameRetries: -1})
	if err == nil {
		t.Fatal("FrameRetries=-1 still healed a pinned singularity")
	}
	var ferr *FrameError
	if !errors.As(err, &ferr) {
		t.Fatalf("err %v carries no *FrameError", err)
	}
	if ferr.Attempts != 1 {
		t.Errorf("Attempts = %d with retries disabled, want 1", ferr.Attempts)
	}
}

func TestBudgetTypedError(t *testing.T) {
	logs := make([]float64, 30)
	for i := range logs {
		logs[i] = -12 * float64(i)
	}
	want := profilePoly(logs, nil)
	_, err := Generate(interp.FromPoly("huge", want, 30), Config{MaxIterations: 2})
	if !errors.Is(err, ErrIterationBudget) {
		t.Fatalf("err = %v, want ErrIterationBudget", err)
	}
	var berr *BudgetError
	if !errors.As(err, &berr) || berr.Budget != 2 {
		t.Errorf("BudgetError diagnostics wrong: %+v", berr)
	}

	res, err := Generate(interp.FromPoly("huge", want, 30), Config{MaxIterations: 2, AllowDegraded: true})
	if err != nil {
		t.Fatalf("AllowDegraded returned an error: %v", err)
	}
	if !res.Degraded() || len(res.Faults()) == 0 {
		t.Errorf("budget exhaustion under AllowDegraded: Degraded=%v, %d events", res.Degraded(), len(res.Faults()))
	}
}

func TestScaleDivergenceWatchdog(t *testing.T) {
	want := ua741Profile()
	ev := interp.FromPoly("drift", want, 49)
	_, err := Generate(ev, Config{InitFScale: 1e8, InitGScale: 1, MaxScaleDriftLog10: 0.001})
	if !errors.Is(err, ErrScaleDivergence) {
		t.Fatalf("err = %v, want ErrScaleDivergence", err)
	}
	var derr *ScaleDivergenceError
	if !errors.As(err, &derr) {
		t.Fatalf("err %v carries no *ScaleDivergenceError", err)
	}
	if derr.BoundLog10 != 0.001 || derr.DriftLog10 <= derr.BoundLog10 {
		t.Errorf("divergence diagnostics wrong: drift %g, bound %g", derr.DriftLog10, derr.BoundLog10)
	}
	if derr.InitF != 1e8 {
		t.Errorf("InitF = %g, want 1e8", derr.InitF)
	}
}

// stuckEvaluator ignores the proposed scale factors: every frame sees
// the coefficients normalized at the same fixed pair, so after the first
// window resolves, no rescaled frame can ever reveal anything new — the
// canonical valid-region stall.
func stuckEvaluator(p poly.XPoly, m int) interp.Evaluator {
	return interp.Evaluator{
		Name: "stuck", M: m, OrderBound: len(p) - 1,
		Eval: func(s complex128, f, g float64) xmath.XComplex {
			return p.Normalize(1e8, 1, m).Eval(xmath.FromComplex(s))
		},
	}
}

func TestStallWatchdog(t *testing.T) {
	want := ua741Profile()
	cfg := Config{
		InitFScale: 1e8, InitGScale: 1,
		StallLimit:    50, // keep the per-target negligible escape out of the way
		WatchdogStall: 3,
	}
	_, err := Generate(stuckEvaluator(want, 49), cfg)
	if !errors.Is(err, ErrStall) {
		t.Fatalf("err = %v, want ErrStall", err)
	}
	var serr *StallError
	if !errors.As(err, &serr) {
		t.Fatalf("err %v carries no *StallError", err)
	}
	if serr.Frames < 3 {
		t.Errorf("watchdog tripped after %d frames, configured for 3", serr.Frames)
	}

	// Degraded mode turns the same stall into a usable partial result:
	// the first window's coefficients survive.
	cfg.AllowDegraded = true
	res, err := Generate(stuckEvaluator(want, 49), cfg)
	if err != nil {
		t.Fatalf("AllowDegraded returned an error: %v", err)
	}
	if !res.Degraded() {
		t.Error("stalled result not marked degraded")
	}
	valid := 0
	for _, c := range res.Coeffs {
		if c.Status == Valid {
			valid++
		}
	}
	if valid == 0 {
		t.Error("degraded stall kept no resolved coefficients")
	}
}

// TestFaultEventsReachQuality pins the one event path: every retried
// singular frame lands in Result.Quality.Events as a fault event with
// its error and a rendering.
func TestFaultEventsReachQuality(t *testing.T) {
	want := poly.NewX(1, -2, 3, -4, 5)
	ev := faultAt(interp.FromPoly("hooked", want, 5), 0, 1e-9)
	res, err := Generate(ev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var events []QualityEvent
	for _, e := range res.Quality.Events {
		if e.Kind == EventFault {
			events = append(events, e)
		}
	}
	if len(events) == 0 || len(events) != len(res.Faults()) || len(events) != res.FrameRetries {
		t.Errorf("quality report has %d fault events, Faults() %d, retries %d", len(events), len(res.Faults()), res.FrameRetries)
	}
	for i, e := range events {
		if e.Err == nil {
			t.Errorf("event %d has nil error", i)
		}
		if e.String() == "" || e.Detail == "" {
			t.Errorf("event %d has empty rendering", i)
		}
	}
}

// TestDriftDisabledUnderSingleFactor pins the default interplay: the
// divergence watchdog defaults off for the §3.2 single-factor ablation
// (which exceeds any reasonable bound by design) and on otherwise.
func TestDriftDisabledUnderSingleFactor(t *testing.T) {
	norm := func(c Config) Config {
		t.Helper()
		n, err := c.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if cfg := norm(Config{SingleFactor: true}); cfg.MaxScaleDriftLog10 != -1 {
		t.Errorf("single-factor drift bound = %g, want disabled (-1)", cfg.MaxScaleDriftLog10)
	}
	if cfg := norm(Config{}); cfg.MaxScaleDriftLog10 != 18 {
		t.Errorf("two-factor drift bound = %g, want 18", cfg.MaxScaleDriftLog10)
	}
	if cfg := norm(Config{MaxScaleDriftLog10: -5}); cfg.MaxScaleDriftLog10 != -1 {
		t.Errorf("negative drift bound = %g, want disabled (-1)", cfg.MaxScaleDriftLog10)
	}
	if cfg := norm(Config{FrameRetries: -7}); cfg.FrameRetries != -1 || cfg.retries() != 0 {
		t.Errorf("negative FrameRetries = %d (%d retries), want disabled (-1, 0 retries)", cfg.FrameRetries, cfg.retries())
	}
	if def := norm(Config{}); def.FrameRetries != 2 || def.StallLimit != 3 || def.WatchdogStall != 12 {
		t.Errorf("defaults: FrameRetries=%d WatchdogStall=%d StallLimit=%d", def.FrameRetries, def.WatchdogStall, def.StallLimit)
	}
}
