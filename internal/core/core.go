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
