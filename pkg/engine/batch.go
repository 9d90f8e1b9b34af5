package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// BatchPoint is one design point of a sweep: the base circuit with the
// named element values multiplied by the given factors. An empty Scale
// is the nominal point.
type BatchPoint struct {
	// Scale maps element names to value multipliers. Every named element
	// must exist in the base circuit and every factor must be finite.
	Scale map[string]float64
}

// BatchRequest is a sweep: one topology, many value points. The points
// are generated in order, each warm-started from the schedules of the
// last successfully converged point (unless NoWarmStart), with the
// sparse factorization plans of the first formulation shared across all
// points when the backend supports it (SharedFormulator).
type BatchRequest struct {
	// Circuit is the base (nominal) circuit; points perturb its values.
	Circuit *Circuit
	// Spec names the network function, as in Request.
	Spec Spec
	// Points are the design points, swept in order.
	Points []BatchPoint
	// Options, when non-nil, overrides the engine's generation options
	// for every point. The initial scale pair is pinned once from the
	// base circuit's heuristic (DefaultScales) when unset, so all points
	// share one seed frame and one drift reference.
	Options *Options
	// NoWarmStart runs every point cold — the ablation baseline the
	// warm-start benchmarks and CI gates compare against. Plan sharing
	// across points stays active either way.
	NoWarmStart bool
}

// PointResult is the per-point provenance of a batch generation.
type PointResult struct {
	// Index is the point's position in BatchRequest.Points.
	Index int
	// Response is the generation outcome (partial on Err; nil when the
	// point failed before generation started).
	Response *Response
	// Err is the point's failure, nil on success. A failed point does
	// not stop the sweep (except on context cancellation).
	Err error
	// Warm reports that both polynomial passes replayed the previous
	// point's schedules. ColdFallback carries the first refusal/abort
	// reason when a requested warm start ran cold instead ("" when warm,
	// or when no prior state existed — the first point is always cold).
	Warm         bool
	ColdFallback string
	// Solves and CacheHits total both polynomial passes; Degraded
	// mirrors Response.Degraded().
	Solves    int
	CacheHits int
	Degraded  bool
}

// BatchResponse is the outcome of GenerateBatch.
type BatchResponse struct {
	// Points holds one entry per requested point, in order.
	Points []PointResult
	// WarmStarts counts points generated from a replayed schedule, and
	// ColdFallbacks counts points that had prior state to replay but ran
	// cold (schedule refused or aborted mid-replay). The first point has
	// no prior state and counts toward neither.
	WarmStarts    int
	ColdFallbacks int
	// TotalSolves sums evaluation-point solves over all points,
	// including failed ones; Failures counts points with a non-nil Err.
	TotalSolves int
	Failures    int
}

// SolvesPerPoint is TotalSolves averaged over the successfully generated
// points (0 when every point failed) — the amortization figure the
// warm-start path exists to lower.
func (b *BatchResponse) SolvesPerPoint() float64 {
	ok := len(b.Points) - b.Failures
	if ok <= 0 {
		return 0
	}
	return float64(b.TotalSolves) / float64(ok)
}

// WarmState extracts the per-polynomial schedules of a completed
// response for warm-starting a neighboring generation (set it as
// Options.WarmStart). It returns nil when either polynomial is missing.
func (r *Response) WarmState() *WarmStart {
	if r == nil || r.Num == nil || r.Den == nil {
		return nil
	}
	return &WarmStart{Num: r.Num.Schedule(), Den: r.Den.Schedule()}
}

// GenerateBatch sweeps one topology over many value points. Point N+1 is
// warm-started from point N's converged scale schedules — contributing
// frames replayed, discovery frames dropped — and falls back to a cold
// start (recorded per point) when the schedule fails validation or
// replay; the first point, and every point after a failed one, chains
// from the last successfully converged state. Sparse pivot-order plans
// are shared across all points of the sweep when the backend implements
// SharedFormulator, so only the first point pays the planning cost.
//
// Per-point failures are recorded in Points[i].Err and do not stop the
// sweep; the returned error is non-nil only for an unusable request
// (options Normalize refuses included) or a context cancellation (where
// the computed prefix is kept).
func (e *Engine) GenerateBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	if req.Circuit == nil {
		return nil, errors.New("engine: batch request needs a circuit")
	}
	if len(req.Points) == 0 {
		return nil, errors.New("engine: batch request has no points")
	}
	b, err := lookup(e.cfg.Backend, req.Spec)
	if err != nil {
		return nil, err
	}
	sf, _ := b.(SharedFormulator)
	baseOpts := e.cfg.Options
	if req.Options != nil {
		baseOpts = *req.Options
	}
	baseOpts, err = normalize(baseOpts, frequencyOnly(e.cfg.Backend, req.Spec))
	if err != nil {
		return nil, err
	}
	// Pin the seed scale pair for the whole sweep from the base circuit:
	// every point then shares one initial frame and one drift reference,
	// which is what keeps neighboring schedules within the replay drift
	// bound. (A frequency-only backend already has its unit conductance
	// scale from normalize.) A factor whose heuristic is undefined stays
	// unset: every point has the base's element kinds, so generation
	// falls back to the same 1 and records the warning Generate records.
	baseOpts = pinSeeds(baseOpts, req.Circuit)

	resp := &BatchResponse{Points: make([]PointResult, len(req.Points))}
	var prior *Formulation   // plan-share donor: the last formulation
	var warm *core.WarmStart // schedules of the last converged point
	for i, p := range req.Points {
		pr := &resp.Points[i]
		pr.Index = i
		if err := ctx.Err(); err != nil {
			pr.Err = err
			resp.Failures++
			return resp, err
		}
		ckt, err := applyPoint(req.Circuit, p)
		if err != nil {
			pr.Err = err
			resp.Failures++
			continue
		}
		var f *Formulation
		if sf != nil {
			f, err = sf.FormulateShared(ckt, req.Spec, prior)
		} else {
			f, err = b.Formulate(ckt, req.Spec)
		}
		if err != nil {
			pr.Err = err
			resp.Failures++
			continue
		}
		prior = f
		opts := baseOpts
		if !req.NoWarmStart {
			opts.WarmStart = warm
		}
		r, err := e.Generate(ctx, Request{Circuit: ckt, Spec: req.Spec, Formulation: f, Options: &opts})
		pr.Response = r
		if r != nil {
			if r.Num != nil {
				pr.Solves += r.Num.TotalSolves
				pr.CacheHits += r.Num.CacheHits
			}
			if r.Den != nil {
				pr.Solves += r.Den.TotalSolves
				pr.CacheHits += r.Den.CacheHits
			}
			resp.TotalSolves += pr.Solves
		}
		if err != nil {
			pr.Err = err
			resp.Failures++
			if ctx.Err() != nil {
				return resp, err
			}
			continue
		}
		pr.Degraded = r.Degraded()
		pr.Warm = r.Num.WarmStarted && r.Den.WarmStarted
		pr.ColdFallback = r.Num.ColdFallback()
		if pr.ColdFallback == "" {
			pr.ColdFallback = r.Den.ColdFallback()
		}
		if pr.Warm {
			resp.WarmStarts++
		} else if opts.WarmStart != nil {
			resp.ColdFallbacks++
		}
		if !pr.Degraded {
			warm = r.WarmState()
		}
	}
	return resp, nil
}

// applyPoint copies the base circuit (circuit.Clone: values only, no
// element re-added) and applies the point's value factors in place.
// Non-finite factors, products that overflow to a non-finite value and
// unknown element names are errors.
func applyPoint(base *Circuit, p BatchPoint) (*Circuit, error) {
	if len(p.Scale) == 0 {
		return base, nil
	}
	for name, f := range p.Scale {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("engine: batch point scales %q by non-finite factor %v", name, f)
		}
	}
	out := base.Clone("")
	applied := 0
	for i, el := range out.Elements() {
		f, ok := p.Scale[el.Name]
		if !ok {
			continue
		}
		if err := out.SetValue(i, el.Value*f); err != nil {
			return nil, fmt.Errorf("engine: batch point: %w", err)
		}
		applied++
	}
	if applied != len(p.Scale) {
		var missing []string
		for name := range p.Scale {
			if !out.HasElement(name) {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("engine: batch point scales unknown elements %v", missing)
	}
	return out, nil
}
