// Package engine is the public session-oriented API over the
// reference-generation pipeline: netlist → formulation backend →
// adaptive generation. It is the layer the command-line tools build on
// and the intended entry point for embedding the generator.
//
// A minimal session:
//
//	eng, _ := engine.New(engine.Config{})
//	ckt, _ := engine.LoadNetlist("amp.sp")
//	resp, err := eng.Generate(ctx, engine.Request{
//		Circuit: ckt,
//		Spec:    engine.Spec{Kind: "vgain", In: "in", Out: "out"},
//	})
//
// Formulation backends are looked up in a registry by name ("nodal",
// "mna", "exact"; see Register) — an empty Config.Backend selects
// automatically from the spec kind. The context plumbs through the
// whole pipeline: cancellation stops generation at the next point
// evaluation, the returned error satisfies errors.Is(err,
// context.Canceled), and the partial results keep every coefficient
// resolved so far.
package engine

import (
	"context"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/mna"
)

// Config configures an Engine.
type Config struct {
	// Backend names the formulation backend. "" selects automatically:
	// "mna" for Spec kind "mna", "nodal" otherwise.
	Backend string
	// Options is the generation configuration applied to every request
	// that does not carry its own.
	Options Options
}

// Engine runs the netlist → formulation → generation pipeline. It is
// stateless apart from its configuration and safe for concurrent use.
type Engine struct {
	cfg Config
}

// New validates the configuration and returns an engine. A non-empty
// Config.Backend must name a registered backend.
func New(cfg Config) (*Engine, error) {
	if cfg.Backend != "" {
		if _, err := lookup(cfg.Backend, Spec{}); err != nil {
			return nil, err
		}
	}
	return &Engine{cfg: cfg}, nil
}

// Request is one generation job.
type Request struct {
	// Circuit is the circuit to analyze.
	Circuit *Circuit
	// Spec names the network function.
	Spec Spec
	// Formulation, when non-nil, is a pre-built formulation (from
	// Engine.Formulate) to generate on; the backend is then not
	// consulted and Spec is informational. Callers that need the
	// formulation before generating (to report the transfer function,
	// say) use this to avoid formulating twice.
	Formulation *Formulation
	// Options, when non-nil, overrides the engine's generation options
	// for this request.
	Options *Options
	// Observer, when non-nil, receives every completed Iteration (it
	// overrides any Observer in the options) under the Options.Observer
	// contract: serialized calls, numerator first. Keep it fast and
	// treat the Iteration as read-only.
	Observer func(Iteration)
}

// Response is the outcome of a generation job. Num and Den are always
// populated with whatever was resolved when generation started at all —
// on cancellation or iteration-budget errors they hold the partial
// results (Den is nil when the numerator pass did not complete).
type Response struct {
	// Formulation is the backend's setup of the network function.
	Formulation *Formulation
	// Num and Den are the generated references for the numerator and
	// denominator polynomials.
	Num, Den *Result
}

// Degraded reports whether either polynomial's generation was degraded:
// under Options.AllowDegraded a failure (singular frames past their
// retries, a watchdog trip, budget exhaustion) yields a partial Result
// at the degraded quality tier with the fault events in its
// Result.Quality.Events instead of an error. Check it whenever
// AllowDegraded is on and you need to know the response is complete.
func (r *Response) Degraded() bool {
	return (r.Num != nil && r.Num.Degraded()) || (r.Den != nil && r.Den.Degraded())
}

// Tier is the response's quality tier: the minimum of the two
// polynomials' tiers (degraded when neither polynomial is present).
func (r *Response) Tier() Tier {
	tier, any := TierExact, false
	for _, res := range []*Result{r.Num, r.Den} {
		if res == nil {
			continue
		}
		any = true
		if res.Quality.Tier < tier {
			tier = res.Quality.Tier
		}
	}
	if !any {
		return TierDegraded
	}
	return tier
}

// WorstRelError is the largest per-coefficient relative-error estimate
// across both polynomials (0 when every coefficient is exact, negligible
// or unknown).
func (r *Response) WorstRelError() float64 {
	worst := 0.0
	for _, res := range []*Result{r.Num, r.Den} {
		if res == nil {
			continue
		}
		if w := res.Quality.WorstRelError(); w > worst {
			worst = w
		}
	}
	return worst
}

// Formulate resolves the backend and builds the formulation for spec
// without generating anything.
func (e *Engine) Formulate(c *Circuit, spec Spec) (*Formulation, error) {
	b, err := lookup(e.cfg.Backend, spec)
	if err != nil {
		return nil, err
	}
	return b.Formulate(c, spec)
}

// options resolves the generation options for a request against the
// engine defaults and the formulation's constraints.
func (e *Engine) options(req Request, f *Formulation) (Options, error) {
	opts := e.cfg.Options
	if req.Options != nil {
		opts = *req.Options
	}
	if req.Observer != nil {
		opts.Observer = req.Observer
	}
	return normalize(opts, f.FrequencyOnly)
}

// normalize is the one option path generation, keying and batches
// share: the frequency-only override first — only frequency scaling is
// exact for such a formulation, so it forces single-factor updates and
// keeps the conductance scale at 1, which also moves the drift-bound
// default — then Options.Normalize.
func normalize(opts Options, frequencyOnly bool) (Options, error) {
	if frequencyOnly {
		opts.SingleFactor = true
		if opts.InitGScale == 0 {
			opts.InitGScale = 1
		}
	}
	return opts.Normalize()
}

// Generate runs the full pipeline: formulate the network function, then
// generate numerator and denominator references with the adaptive
// algorithm (scale seeds from the paper's mean-capacitance /
// mean-conductance heuristic unless the options pin them). The Response
// carries partial results alongside a non-nil error when generation
// starts but does not complete — including context cancellation, where
// err wraps ctx.Err(). Options Normalize refuses fail before any solve
// with an error matching ErrBadOptions.
func (e *Engine) Generate(ctx context.Context, req Request) (*Response, error) {
	f := req.Formulation
	if f == nil {
		var err error
		f, err = e.Formulate(req.Circuit, req.Spec)
		if err != nil {
			return nil, err
		}
	}
	opts, err := e.options(req, f)
	if err != nil {
		return nil, err
	}
	num, den, err := core.GenerateTransferFunctionContext(ctx, req.Circuit, f.TF, opts)
	resp := &Response{Formulation: f, Num: num, Den: den}
	if err == nil && opts.ExactRecovery {
		e.exactRecovery(req, f, resp)
	}
	return resp, err
}

// Interpolate runs one fixed-scale interpolation per polynomial of a
// formulation — the paper's Table 1a/1b single-frame setups — instead
// of the adaptive loop. Pass DefaultScales for the heuristic seeds or
// 1, 1 for the unscaled unit-circle method.
func (e *Engine) Interpolate(ctx context.Context, f *Formulation, fscale, gscale float64) (num, den InterpResult, err error) {
	opts := e.cfg.Options
	num, err = interp.RunCtx(ctx, f.TF.Num, fscale, gscale, f.TF.Num.OrderBound+1, opts.Parallelism)
	if err != nil {
		return num, den, err
	}
	den, err = interp.RunCtx(ctx, f.TF.Den, fscale, gscale, f.TF.Den.OrderBound+1, opts.Parallelism)
	return num, den, err
}

// DefaultScales returns the paper's initial-scale heuristic for a
// circuit: frequency scale 1/mean(C), conductance scale 1/mean(G), each
// falling back to 1 when the circuit has no such elements.
func DefaultScales(c *Circuit) (fscale, gscale float64) {
	fscale, gscale, _, _ = c.SeedScales()
	return fscale, gscale
}

// ACResponse computes the complex response H(j2πf) at each frequency by
// direct AC analysis — the "electrical simulator" path of the paper's
// Fig. 2 validation, fully independent of the interpolation pipeline.
// The circuit is cloned and driven according to the spec kind (a unit
// voltage source for "vgain"/"diffgain", a unit current source for
// "transz"; "mna" circuits drive themselves through their own sources);
// an unknown kind is an error. On cancellation the computed prefix is
// returned with ctx.Err().
func (e *Engine) ACResponse(ctx context.Context, c *Circuit, spec Spec, freqsHz []float64) ([]complex128, error) {
	return mna.Response(ctx, c, spec.Kind, spec.In, spec.Inn, spec.Out, freqsHz)
}
