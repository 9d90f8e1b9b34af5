// Package core implements the paper's contribution: the adaptive scaling
// algorithm for numerical reference generation.
//
// A single polynomial interpolation with scale factors (f, g) exposes
// only the coefficients within ~13−σ decades of the largest normalized
// coefficient (the float64 noise floor, interp.NoiseExp). The algorithm
// performs successive interpolations whose scale factors are derived from
// the previous valid region (eqs. 13–15) so that the regions tile the
// whole coefficient range with minimal overlap; gaps between regions are
// repaired with geometric-mean factors (eq. 16); and each subsequent
// interpolation can be shrunk to the still-unresolved index window by
// deflating the already-known coefficients (eq. 17).
//
// Coefficients that stay below the noise floor in every frame aimed at
// them are classified Negligible with an explicit upper bound — the
// paper's order-reduction observation ("for this scaling, these
// coefficients affect the polynomial value less than the error level,
// and, hence, can be neglected").
//
// The generation loop is decomposed into staged units: the scale-update
// policy (policy.go, eqs. 13–16), the window classifier (window.go), the
// eq. (17) deflation (deflate.go) and the driving loop (generator.go).
// Config.Observer exposes a per-iteration hook, and the Context variants
// of the entry points support cooperative cancellation: generation stops
// at the next point evaluation, returns the context's error, and the
// partial Result keeps everything resolved so far.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/circuit"
	"repro/internal/interp"
	"repro/internal/xmath"
)

// Config controls the generator. The zero value is usable: it selects the
// paper's parameters (σ = 6, r = 0, reduction on).
type Config struct {
	// SigDigits is σ, the number of significant digits required of every
	// coefficient (paper §3.2 uses 6). 0 selects 6.
	SigDigits int
	// TuningR is the tuning factor r of eqs. (14)–(15); 0 aims each new
	// region to start exactly where the previous one ended. Negative
	// values increase region overlap (more conservative), positive values
	// risk gaps.
	TuningR float64
	// MaxIterations bounds the total number of interpolations. 0 selects 64.
	MaxIterations int
	// NoReduce disables the problem-size reduction of eq. (17); every
	// interpolation then uses the full n+1 points.
	NoReduce bool
	// StallLimit is the number of consecutive aimed interpolations (plus
	// repairs) that may fail to resolve a target coefficient before it is
	// classified Negligible. 0 selects 2.
	StallLimit int
	// InitFScale and InitGScale seed the first interpolation. 0 selects 1.
	// GenerateTransferFunction fills them with the paper's heuristic
	// (inverse mean capacitance / conductance).
	InitFScale, InitGScale float64
	// SingleFactor disables the simultaneous √q split of eq. (13) and
	// puts the whole scale jump into the frequency factor — the naive
	// strategy the paper's §3.2 warns about. For ablation studies.
	SingleFactor bool
	// Parallelism is the worker count for batched point evaluation:
	// 0 selects GOMAXPROCS, 1 forces the serial path (also the fallback
	// when the evaluator has no EvalBatch). Results are bit-identical
	// across settings — evaluators are required to make each point a
	// pure function of the point and the (serially primed) shared
	// factorization plan, so parallelism affects wall clock only.
	Parallelism int
	// NoMirror disables the Hermitian half-circle scheme: every
	// interpolation then evaluates all K points instead of the ⌊K/2⌋+1
	// non-redundant ones. For ablation benchmarks and measurements.
	NoMirror bool
	// NoJoint disables the shared numerator/denominator evaluation cache
	// in GenerateTransferFunction even when the transfer function
	// provides EvalBoth. For ablation benchmarks and differential checks.
	NoJoint bool
	// Observer, when non-nil, is invoked synchronously after every
	// completed interpolation with the Iteration just recorded. It runs
	// on the generation goroutine: keep it fast and treat the Iteration
	// (including its slices) as read-only.
	Observer func(Iteration)
	// FrameRetries is the number of times a frame whose point evaluation
	// produced a non-finite (singular) value is retried with perturbed
	// geometry before the frame is declared failed. Each retry bumps the
	// point count to the next odd value (rotating every evaluation angle)
	// and odd-numbered retries additionally negate the points (a
	// half-step rotation), so a pole sitting on an evaluation angle is
	// stepped around deterministically. 0 selects 2; negative disables
	// retries.
	FrameRetries int
	// RetryBackoff is the base delay between frame retries, doubling per
	// attempt up to one second; a context cancellation interrupts the
	// wait. 0 means no delay, which is the right default here: singular
	// points are deterministic functions of the evaluation geometry, so
	// rotating the points — not waiting — is what heals the frame. The
	// backoff exists for evaluators backed by transient external
	// resources.
	RetryBackoff time.Duration
	// AllowDegraded converts generation-ending failures (frames that
	// exhaust their retries, watchdog trips, iteration-budget exhaustion)
	// into a degraded partial Result: Generate returns a nil error, the
	// Result's quality tier is TierDegraded with the fault events in
	// Result.Quality.Events, and the affected coefficients stay Unknown.
	// Context cancellation still returns an error. Off by default:
	// failures surface as the typed errors of the taxonomy in errors.go.
	AllowDegraded bool
	// WatchdogStall is M, the number of consecutive completed frames that
	// resolve no coefficient before the stall watchdog declares the run
	// stuck (ErrStall). 0 selects 4×StallLimit: the per-target stall
	// escape classifies a target Negligible after StallLimit consecutive
	// misses, so a healthy run advances at least every StallLimit frames
	// and can never trip the default watchdog. Negative disables it.
	WatchdogStall int
	// MaxScaleDriftLog10 bounds the decade drift max(|log10(f/f0)|,
	// |log10(g/g0)|) of every proposed scale pair against the seed pair —
	// the same invariant internal/check enforces post-hoc
	// (check.Options.MaxScaleLog10). A proposal beyond the bound trips
	// the divergence watchdog (ErrScaleDivergence); a non-finite or
	// non-positive proposal always trips it regardless of the bound. 0
	// selects 18 decades (the paper's "too large" threshold) for the
	// two-factor policy and no bound under SingleFactor, which §3.2
	// documents as exceeding it by design; negative disables the bound.
	MaxScaleDriftLog10 float64
	// OnFailure, when non-nil, receives every fault QualityEvent as it is
	// recorded, before it is merged into Result.Quality.Events. Like
	// Observer it runs synchronously on the generation goroutine.
	OnFailure func(QualityEvent)
	// WarmStart, when non-nil, carries the converged schedules of a prior
	// generation on a neighboring design point (see Result.Schedule). The
	// run replays the matching schedule instead of rediscovering the
	// scale sequence, and falls back to a full cold start — reason in
	// Result.ColdFallback() — when the schedule fails pre-validation
	// (degraded prior, window or precision mismatch, drift past
	// MaxScaleDriftLog10) or its frames fail mid-replay.
	WarmStart *WarmStart
	// MaxSolves bounds the total number of evaluation-point solves across
	// all frames of one polynomial (Result.TotalSolves). The bound is
	// checked before each frame dispatches its batch: a frame that would
	// cross it trips ErrIterationBudget (a *BudgetError with Kind
	// "solves") without performing any of its solves. 0 disables the
	// bound. Unlike MaxIterations this is an execution-side budget —
	// engine callers exclude it from the request content address, so a
	// server can clamp it per request without changing request identity.
	MaxSolves int
	// MemoryBudget is a soft ceiling, in bytes, on the generator's
	// cumulative arena estimate (Result.EstimatedBytes): evaluation
	// points, solved extended-range values and one factorization plan
	// per frame. A frame whose estimate would cross the ceiling trips
	// ErrIterationBudget (a *BudgetError with Kind "bytes") before
	// dispatching any solves. 0 disables the ceiling. Execution-only
	// like MaxSolves: excluded from the content address.
	MemoryBudget int64
	// DegradeOnBudget converts budget exhaustion — and only budget
	// exhaustion (failures matching ErrIterationBudget) — into a
	// degraded partial Result, exactly as AllowDegraded does for the
	// whole taxonomy. Servers use it to turn an enforced resource
	// budget into a labeled partial answer under the tier contract
	// without masking genuine generation failures.
	DegradeOnBudget bool
	// ExactRecovery requests the engine-level opt-in recovery pass that
	// snaps certified coefficients to rationals and verifies them against
	// the exact-arithmetic oracle, upgrading them to TierExact. The core
	// generator ignores it (it has no oracle); it lives here so it is
	// part of the canonical option set engine callers hash and serialize.
	ExactRecovery bool
}

func (cfg Config) withDefaults() Config {
	if cfg.SigDigits == 0 {
		cfg.SigDigits = 6
	}
	if cfg.MaxIterations == 0 {
		cfg.MaxIterations = 64
	}
	if cfg.StallLimit == 0 {
		cfg.StallLimit = 3
	}
	if cfg.InitFScale == 0 {
		cfg.InitFScale = 1
	}
	if cfg.InitGScale == 0 {
		cfg.InitGScale = 1
	}
	switch {
	case cfg.FrameRetries == 0:
		cfg.FrameRetries = 2
	case cfg.FrameRetries < 0:
		cfg.FrameRetries = 0
	}
	switch {
	case cfg.WatchdogStall == 0:
		cfg.WatchdogStall = 4 * cfg.StallLimit
	case cfg.WatchdogStall < 0:
		cfg.WatchdogStall = 0 // disabled
	}
	switch {
	case cfg.MaxScaleDriftLog10 == 0 && !cfg.SingleFactor:
		cfg.MaxScaleDriftLog10 = 18
	case cfg.MaxScaleDriftLog10 <= 0:
		cfg.MaxScaleDriftLog10 = 0 // disabled (finiteness still enforced)
	}
	return cfg
}

// Generate runs the adaptive algorithm on one polynomial evaluator. The
// returned Result is always populated with whatever was resolved; the
// error is non-nil when coefficients remain Unknown after the iteration
// budget (or the evaluator is degenerate).
func Generate(ev interp.Evaluator, cfg Config) (*Result, error) {
	return GenerateContext(context.Background(), ev, cfg)
}

// GenerateContext is Generate with cooperative cancellation: when ctx is
// canceled, generation stops at the next point evaluation and returns
// ctx.Err() (so errors.Is(err, context.Canceled) holds) alongside the
// partial Result, which keeps every coefficient resolved so far. With a
// never-canceled context the run is bit-identical to Generate.
func GenerateContext(ctx context.Context, ev interp.Evaluator, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if ev.OrderBound < 0 {
		return nil, errors.New("core: evaluator order bound is negative")
	}
	if ev.Eval == nil {
		return nil, errors.New("core: evaluator has no Eval function")
	}
	// OrderBound may exceed M (the paper's a-priori estimate is the
	// capacitor count, which can top the matrix order): the surplus slots
	// are zeros and come out Negligible — proven structural zeros when
	// the evaluator carries a degree window, bounded by frame evidence
	// otherwise.
	g := newGenerator(ctx, ev, cfg)
	err := g.run()
	if g.restart != "" {
		// A warm replay aborted mid-flight: rerun the whole generation
		// cold, keeping the fallback reason as provenance. Pre-validation
		// refusals never get here — they proceed cold within the first
		// run (see warmSchedule).
		reason := g.restart
		cold := cfg
		cold.WarmStart = nil
		g = newGenerator(ctx, ev, cold)
		g.res.AddEvent(QualityEvent{Kind: EventColdFallback, Frame: -1, Target: -1, Detail: reason})
		err = g.run()
	}
	g.markStructuralZeros()
	g.res.finalizeQuality(g.degraded)
	return g.res, err
}

// newGenerator constructs a generator for one run of a (defaulted)
// configuration, recording the run's seed provenance on the Result.
func newGenerator(ctx context.Context, ev interp.Evaluator, cfg Config) *generator {
	g := &generator{
		ctx:      ctx,
		ev:       ev,
		cfg:      cfg,
		n:        ev.OrderBound,
		res:      &Result{Name: ev.Name, Coeffs: make([]Coefficient, ev.OrderBound+1)},
		points:   make(map[int][]complex128),
		policy:   paperScalePolicy{singleFactor: cfg.SingleFactor},
		classify: sigmaClassifier{sigDigits: cfg.SigDigits},
	}
	g.wlo, g.whi = ev.DegreeWindow()
	g.res.Parallelism = interp.Workers(cfg.Parallelism)
	g.res.M = ev.M
	g.res.SigDigits = cfg.SigDigits
	g.res.SeedFScale, g.res.SeedGScale = cfg.InitFScale, cfg.InitGScale
	return g
}

// GenerateTransferFunction generates references for both polynomials of a
// transfer function, seeding the first interpolation with the paper's
// heuristic: frequency scale = 1/mean(C), conductance scale = 1/mean(G).
// A circuit with no capacitors (or no conductances) has no mean to
// invert; the factor falls back to 1.0 and the fallback is recorded as a
// warning quality event in both results.
//
// When the transfer function provides EvalBoth (and cfg.NoJoint is
// unset), both polynomials are driven through a shared evaluation cache
// keyed by (s, fscale, gscale): the denominator pass reuses every
// factorization the numerator pass already performed at a coinciding
// triple. Hit/miss counts are attributed per pass in the results.
func GenerateTransferFunction(c *circuit.Circuit, tf *interp.TransferFunction, cfg Config) (num, den *Result, err error) {
	return GenerateTransferFunctionContext(context.Background(), c, tf, cfg)
}

// GenerateTransferFunctionContext is GenerateTransferFunction with
// cooperative cancellation (see GenerateContext). A cancellation during
// the numerator pass returns (partial num, nil, err); during the
// denominator pass, (complete num, partial den, err).
func GenerateTransferFunctionContext(ctx context.Context, c *circuit.Circuit, tf *interp.TransferFunction, cfg Config) (num, den *Result, err error) {
	var diags []string
	if cfg.InitFScale == 0 {
		// The reciprocal can overflow for degenerate (subnormal) element
		// values that slipped past formulation; a non-finite seed would
		// poison every scale proposal, so fall back like the no-element case.
		if mc := c.MeanCapacitance(); mc > 0 && !math.IsInf(1/mc, 0) {
			cfg.InitFScale = 1 / mc
		} else {
			cfg.InitFScale = 1
			diags = append(diags, "no capacitors: frequency-scale heuristic 1/mean(C) undefined, using InitFScale=1")
		}
	}
	if cfg.InitGScale == 0 {
		if mg := c.MeanConductance(); mg > 0 && !math.IsInf(1/mg, 0) {
			cfg.InitGScale = 1 / mg
		} else {
			cfg.InitGScale = 1
			diags = append(diags, "no conductances: conductance-scale heuristic 1/mean(G) undefined, using InitGScale=1")
		}
	}
	numEv, denEv := tf.Num, tf.Den
	var jc *jointCache
	if !cfg.NoJoint && tf.EvalBoth != nil {
		jc = newJointCache(tf)
		numEv = jc.evaluator(tf.Num, func(n, _ xmath.XComplex) xmath.XComplex { return n })
		denEv = jc.evaluator(tf.Den, func(_, d xmath.XComplex) xmath.XComplex { return d })
	}
	warn := func(r *Result) {
		for _, d := range diags {
			r.AddEvent(QualityEvent{Kind: EventWarning, Frame: -1, Target: -1, Detail: d})
		}
	}
	var numHits, numMisses int
	num, err = GenerateContext(ctx, numEv, cfg)
	warn(num)
	if jc != nil {
		numHits, numMisses = jc.counters()
		num.CacheHits, num.CacheMisses = numHits, numMisses
	}
	if err != nil {
		return num, nil, fmt.Errorf("core: numerator of %s: %w", tf.Name, err)
	}
	den, err = GenerateContext(ctx, denEv, cfg)
	warn(den)
	if jc != nil {
		h, m := jc.counters()
		den.CacheHits, den.CacheMisses = h-numHits, m-numMisses
	}
	if err != nil {
		return num, den, fmt.Errorf("core: denominator of %s: %w", tf.Name, err)
	}
	return num, den, nil
}
