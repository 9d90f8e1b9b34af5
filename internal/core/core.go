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
	"sync"

	"repro/internal/circuit"
	"repro/internal/interp"
	"repro/internal/xmath"
)

// Generate runs the adaptive algorithm on one polynomial evaluator. The
// returned Result is always populated with whatever was resolved; the
// error is non-nil when coefficients remain Unknown after the iteration
// budget (or the evaluator is degenerate). A Config that Normalize
// refuses returns its *OptionError and no Result.
func Generate(ev interp.Evaluator, cfg Config) (*Result, error) {
	return GenerateContext(context.Background(), ev, cfg)
}

// GenerateContext is Generate with cooperative cancellation: when ctx is
// canceled, generation stops at the next point evaluation and returns
// ctx.Err() (so errors.Is(err, context.Canceled) holds) alongside the
// partial Result, which keeps every coefficient resolved so far. With a
// never-canceled context the run is bit-identical to Generate.
func GenerateContext(ctx context.Context, ev interp.Evaluator, cfg Config) (*Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if cfg.InitFScale == 0 {
		cfg.InitFScale = 1
	}
	if cfg.InitGScale == 0 {
		cfg.InitGScale = 1
	}
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
	err = g.run()
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

// newGenerator constructs a generator for one run of a normalized,
// seeded configuration, recording the run's seed provenance on the Result.
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
// When the transfer function provides a joint form (EvalBothChunk; see
// interp.TransferFunction) and cfg.NoJoint is unset, both
// polynomials are driven through a shared evaluation cache keyed by
// (s, fscale, gscale): the denominator pass reuses every
// factorization the numerator pass already performed at a coinciding
// triple. Hit/miss counts are attributed per pass in the results, so the
// two passes run one after the other.
//
// Without a joint cache the passes share no state, and unless
// cfg.Parallelism is 1 the denominator pass runs on its own goroutine,
// overlapping the numerator pass. The results, errors and warning events
// are those of the sequential run, and the Observer still sees every
// numerator iteration before any denominator iteration (see
// Config.Observer).
func GenerateTransferFunction(c *circuit.Circuit, tf *interp.TransferFunction, cfg Config) (num, den *Result, err error) {
	return GenerateTransferFunctionContext(context.Background(), c, tf, cfg)
}

// GenerateTransferFunctionContext is GenerateTransferFunction with
// cooperative cancellation (see GenerateContext). A cancellation during
// the numerator pass returns (partial num, nil, err); during the
// denominator pass, (complete num, partial den, err). On the overlapped
// path a failed numerator cancels the denominator pass and returns no
// denominator, exactly as if it had never started.
func GenerateTransferFunctionContext(ctx context.Context, c *circuit.Circuit, tf *interp.TransferFunction, cfg Config) (num, den *Result, err error) {
	if cfg, err = cfg.Normalize(); err != nil {
		return nil, nil, err
	}
	var diags []string
	fscale, gscale, fwarn, gwarn := c.SeedScales()
	if cfg.InitFScale == 0 {
		cfg.InitFScale = fscale
		if fwarn != "" {
			diags = append(diags, fwarn)
		}
	}
	if cfg.InitGScale == 0 {
		cfg.InitGScale = gscale
		if gwarn != "" {
			diags = append(diags, gwarn)
		}
	}
	numEv, denEv := tf.Num, tf.Den
	var jc *jointCache
	if eval := tf.EvalBothChunk; !cfg.NoJoint && eval != nil {
		jc = newJointCache(eval, tf.BothReady)
		numEv = jc.evaluator(tf.Num, func(n, _ xmath.XComplex) xmath.XComplex { return n })
		denEv = jc.evaluator(tf.Den, func(_, d xmath.XComplex) xmath.XComplex { return d })
	}
	warn := func(r *Result) {
		for _, d := range diags {
			r.AddEvent(QualityEvent{Kind: EventWarning, Frame: -1, Target: -1, Detail: d})
		}
	}
	var numErr, denErr error
	if jc == nil && cfg.Parallelism != 1 {
		num, den, numErr, denErr = overlapPasses(ctx, numEv, denEv, cfg)
	} else {
		var numHits, numMisses int
		num, numErr = GenerateContext(ctx, numEv, cfg)
		if jc != nil {
			numHits, numMisses = jc.counters()
			num.CacheHits, num.CacheMisses = numHits, numMisses
		}
		if numErr == nil {
			den, denErr = GenerateContext(ctx, denEv, cfg)
			if jc != nil {
				h, m := jc.counters()
				den.CacheHits, den.CacheMisses = h-numHits, m-numMisses
			}
		}
	}
	warn(num)
	if numErr != nil {
		return num, nil, fmt.Errorf("core: numerator of %s: %w", tf.Name, numErr)
	}
	warn(den)
	if denErr != nil {
		return num, den, fmt.Errorf("core: denominator of %s: %w", tf.Name, denErr)
	}
	return num, den, nil
}

// overlapPasses runs the numerator pass on the calling goroutine and the
// denominator pass concurrently on its own, under a context derived from
// ctx that is canceled when the numerator fails. The two passes share no
// state, so each Result is bit-identical to a sequential run. It returns
// only after the denominator goroutine has exited; a panic there is
// re-raised here. When the numerator fails, the denominator's Result and
// error are discarded, as if it had never started.
func overlapPasses(ctx context.Context, numEv, denEv interp.Evaluator, cfg Config) (num, den *Result, numErr, denErr error) {
	denCtx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	defer func() {
		cancel()
		<-done
	}()
	denCfg := cfg
	var obs *heldObserver
	if cfg.Observer != nil {
		obs = &heldObserver{inner: cfg.Observer}
		denCfg.Observer = obs.observe
	}
	var panicked any
	go func() {
		defer close(done)
		defer func() { panicked = recover() }()
		den, denErr = GenerateContext(denCtx, denEv, denCfg)
	}()
	num, numErr = GenerateContext(ctx, numEv, cfg)
	if numErr != nil {
		cancel()
	}
	if obs != nil {
		obs.release(numErr == nil)
	}
	<-done
	if panicked != nil {
		panic(panicked)
	}
	if numErr != nil {
		return num, nil, numErr, nil
	}
	return num, den, nil, denErr
}

// heldObserver keeps the denominator pass's Observer calls behind the
// numerator's: it holds them back until release, then delivers the held
// ones and every later one live (deliver) or drops them all. The mutex
// is held across the caller's Observer on purpose: it is what keeps the
// calls serialized, and the Observer has no way to reach it.
type heldObserver struct {
	mu       sync.Mutex
	inner    func(Iteration)
	released bool
	deliver  bool
	held     []Iteration
}

func (o *heldObserver) observe(it Iteration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case !o.released:
		o.held = append(o.held, it)
	case o.deliver:
		o.inner(it)
	}
}

func (o *heldObserver) release(deliver bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.released, o.deliver = true, deliver
	if deliver {
		for _, it := range o.held {
			o.inner(it)
		}
	}
	o.held = nil
}
