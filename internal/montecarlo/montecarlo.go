// Package montecarlo implements tolerance analysis over generated
// references — the "repetitive evaluations in design automation
// applications" the paper's introduction motivates. Each sample perturbs
// every element value within its tolerance, regenerates the
// network-function references, and evaluates the response from the
// coefficient polynomials (microseconds per frequency point, against a
// full linear solve per point for naive Monte Carlo).
//
// The samples run through engine.GenerateBatch: one topology, many value
// points, each warm-started from the previous sample's converged scale
// schedule with the sparse factorization plans shared across the whole
// sweep — the amortized fleet workload the batch layer exists for.
package montecarlo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/bode"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/pkg/engine"
)

// Config controls a run.
type Config struct {
	// Samples is the number of Monte Carlo samples. 0 selects 100.
	Samples int
	// Tolerance is the relative half-width of the uniform value spread
	// (e.g. 0.05 = ±5%) applied to every R, C, L, conductance and
	// transconductance. 0 is allowed (degenerate, zero spread).
	Tolerance float64
	// Seed makes the run reproducible.
	Seed int64
	// Core passes through generator options.
	Core core.Config
}

// Quantiles holds the magnitude distribution at one frequency.
type Quantiles struct {
	FreqHz              float64
	P05DB, P50DB, P95DB float64
}

// Stats is the outcome of a run.
type Stats struct {
	// Magnitude holds per-frequency |H| quantiles in dB.
	Magnitude []Quantiles
	// Samples is the number of successful samples.
	Samples int
	// Failures counts samples whose reference generation failed
	// (pathological value draws); they are excluded from the quantiles.
	Failures int
	// WarmStarts, ColdFallbacks and TotalSolves surface the batch
	// layer's amortization counters (see engine.BatchResponse).
	WarmStarts    int
	ColdFallbacks int
	TotalSolves   int
}

// Run performs the analysis of the given transfer function over the
// frequency band.
func Run(c *circuit.Circuit, spec engine.Spec, freqsHz []float64, cfg Config) (*Stats, error) {
	if cfg.Samples == 0 {
		cfg.Samples = 100
	}
	if cfg.Tolerance < 0 {
		return nil, fmt.Errorf("montecarlo: negative tolerance")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	points := make([]engine.BatchPoint, cfg.Samples)
	for s := range points {
		scale := make(map[string]float64, len(c.Elements()))
		for _, e := range c.Elements() {
			scale[e.Name] = 1 + cfg.Tolerance*(2*rng.Float64()-1)
		}
		points[s] = engine.BatchPoint{Scale: scale}
	}
	eng, err := engine.New(engine.Config{Options: cfg.Core})
	if err != nil {
		return nil, fmt.Errorf("montecarlo: %w", err)
	}
	resp, err := eng.GenerateBatch(context.Background(), engine.BatchRequest{
		Circuit: c,
		Spec:    spec,
		Points:  points,
	})
	if err != nil {
		return nil, fmt.Errorf("montecarlo: %w", err)
	}
	mags := make([][]float64, len(freqsHz))
	st := &Stats{
		WarmStarts:    resp.WarmStarts,
		ColdFallbacks: resp.ColdFallbacks,
		TotalSolves:   resp.TotalSolves,
	}
	for _, pr := range resp.Points {
		if pr.Err != nil {
			st.Failures++
			continue
		}
		pts, err := bode.FromPolys(pr.Response.Num.Poly(), pr.Response.Den.Poly(), freqsHz)
		if err != nil {
			st.Failures++
			continue
		}
		for i, p := range pts {
			mags[i] = append(mags[i], p.MagDB)
		}
		st.Samples++
	}
	if st.Samples == 0 {
		return nil, fmt.Errorf("montecarlo: every sample failed (%d failures)", st.Failures)
	}
	st.Magnitude = make([]Quantiles, len(freqsHz))
	for i, f := range freqsHz {
		sort.Float64s(mags[i])
		st.Magnitude[i] = Quantiles{
			FreqHz: f,
			P05DB:  quantile(mags[i], 0.05),
			P50DB:  quantile(mags[i], 0.50),
			P95DB:  quantile(mags[i], 0.95),
		}
	}
	return st, nil
}

// quantile interpolates the q-th quantile of sorted data.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// WorstSpreadDB returns the largest P95−P05 magnitude spread across the
// band and the frequency where it occurs.
func (st *Stats) WorstSpreadDB() (spreadDB, atHz float64) {
	for _, q := range st.Magnitude {
		if s := q.P95DB - q.P05DB; s > spreadDB {
			spreadDB, atHz = s, q.FreqHz
		}
	}
	return spreadDB, atHz
}
