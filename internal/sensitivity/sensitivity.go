// Package sensitivity computes normalized element sensitivities of a
// network function from regenerated references:
//
//	S^H_x(jω) = (x/H)·∂H/∂x
//
// — the other classic "repetitive evaluation" of symbolic design
// automation (paper §1): each element's sensitivity needs the network
// function at a perturbed design point, and evaluating from regenerated
// coefficient polynomials keeps the per-frequency cost trivial.
//
// Derivatives use central differences with a relative step; the
// references carry ≥6 significant digits, so a 1e-3 step leaves ~3
// digits of sensitivity accuracy — ample for ranking and design
// centering.
//
// The 2·|elements|+1 design points run as one engine.GenerateBatch
// sweep: the nominal point generates cold, every perturbed point
// warm-starts from its neighbor's converged scale schedule over shared
// factorization plans.
package sensitivity

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/poly"
	"repro/internal/xmath"
	"repro/pkg/engine"
)

// Config controls the analysis.
type Config struct {
	// RelStep is the relative perturbation h (x → x(1 ± h)).
	// 0 selects 1e-3.
	RelStep float64
	// Core passes through generator options.
	Core core.Config
	// NoWarmStart disables warm starting between the design points
	// (every point regenerates cold) — the ablation baseline.
	NoWarmStart bool
}

// Sensitivity is one element's normalized sensitivity at each frequency.
type Sensitivity struct {
	Element string
	// S holds the complex normalized sensitivities per frequency:
	// Re(S) is the magnitude sensitivity (d ln|H| / d ln x),
	// Im(S) the phase sensitivity (dφ/d ln x, radians).
	S []complex128
	// MaxAbs is the largest |S| over the band (the ranking key).
	MaxAbs float64
}

// Analyze computes sensitivities of the spec'd network function for
// every element at the given frequencies, sorted by descending MaxAbs.
func Analyze(c *circuit.Circuit, spec engine.Spec, freqsHz []float64, cfg Config) ([]Sensitivity, error) {
	out, _, err := AnalyzeBatch(c, spec, freqsHz, cfg)
	return out, err
}

// AnalyzeBatch is Analyze, additionally returning the batch response so
// callers can report the sweep's warm-start provenance and solve counts.
func AnalyzeBatch(c *circuit.Circuit, spec engine.Spec, freqsHz []float64, cfg Config) ([]Sensitivity, *engine.BatchResponse, error) {
	if cfg.RelStep == 0 {
		cfg.RelStep = 1e-3
	}
	if cfg.RelStep <= 0 || cfg.RelStep >= 0.5 {
		return nil, nil, fmt.Errorf("sensitivity: bad relative step %g", cfg.RelStep)
	}
	elems := c.Elements()
	// Point 0 is nominal; points 2k+1 and 2k+2 perturb element k up and
	// down. Sweeping ±h pairs in sequence keeps consecutive points within
	// 2h of each other, which is what makes the schedules replayable.
	points := make([]engine.BatchPoint, 0, 2*len(elems)+1)
	points = append(points, engine.BatchPoint{})
	for _, e := range elems {
		points = append(points,
			engine.BatchPoint{Scale: map[string]float64{e.Name: 1 + cfg.RelStep}},
			engine.BatchPoint{Scale: map[string]float64{e.Name: 1 - cfg.RelStep}},
		)
	}
	resp, err := run(c, spec, points, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("sensitivity: %w", err)
	}
	// Any failed point invalidates the analysis; keep the historical
	// per-point error labels.
	eval := make([][]complex128, len(points))
	for i, pr := range resp.Points {
		if pr.Err != nil {
			switch {
			case i == 0:
				return nil, nil, fmt.Errorf("sensitivity: nominal analysis: %w", pr.Err)
			case i%2 == 1:
				return nil, nil, fmt.Errorf("sensitivity: %s+: %w", elems[(i-1)/2].Name, pr.Err)
			default:
				return nil, nil, fmt.Errorf("sensitivity: %s-: %w", elems[(i-1)/2].Name, pr.Err)
			}
		}
		eval[i] = evalBand(pr.Response, freqsHz)
	}
	base := eval[0]
	out := make([]Sensitivity, 0, len(elems))
	for k, e := range elems {
		up, down := eval[2*k+1], eval[2*k+2]
		s := Sensitivity{Element: e.Name, S: make([]complex128, len(freqsHz))}
		for i := range freqsHz {
			if base[i] == 0 {
				continue
			}
			// d ln H / d ln x by central difference:
			// (ln H(x(1+h)) − ln H(x(1−h))) / (ln(1+h) − ln(1−h)).
			num := cmplx.Log(up[i]) - cmplx.Log(down[i])
			den := cmplx.Log(complex(1+cfg.RelStep, 0)) - cmplx.Log(complex(1-cfg.RelStep, 0))
			s.S[i] = num / den
			if a := cmplx.Abs(s.S[i]); a > s.MaxAbs {
				s.MaxAbs = a
			}
		}
		out = append(out, s)
	}
	sortByMaxAbs(out)
	return out, resp, nil
}

// run sweeps the design points through the engine batch layer.
func run(c *circuit.Circuit, spec engine.Spec, points []engine.BatchPoint, cfg Config) (*engine.BatchResponse, error) {
	eng, err := engine.New(engine.Config{Options: cfg.Core})
	if err != nil {
		return nil, err
	}
	return eng.GenerateBatch(context.Background(), engine.BatchRequest{
		Circuit:     c,
		Spec:        spec,
		Points:      points,
		NoWarmStart: cfg.NoWarmStart,
	})
}

func sortByMaxAbs(s []Sensitivity) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].MaxAbs > s[j-1].MaxAbs; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// evalBand evaluates H at the band from a generated response.
func evalBand(r *engine.Response, freqsHz []float64) []complex128 {
	np, dp := r.Num.Poly(), r.Den.Poly()
	out := make([]complex128, len(freqsHz))
	for i, f := range freqsHz {
		out[i] = evalRatio(np, dp, complex(0, 2*math.Pi*f))
	}
	return out
}

func evalRatio(num, den poly.XPoly, s complex128) complex128 {
	z := xmath.FromComplex(s)
	d := den.Eval(z)
	if d.Zero() {
		return 0
	}
	return num.Eval(z).Div(d).Complex128()
}
