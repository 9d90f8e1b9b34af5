// Package paper produces the data behind every table and figure of the
// paper's evaluation as structured values, so the reproduction itself is
// library code under test; `refgen tables` renders it, and Fig2 is the
// one Fig. 2 check that `refgen bodecmp` and examples/ua741 run too.
package paper

import (
	"context"

	"repro/internal/bode"
	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/pkg/engine"
)

// Table1 holds the OTA baselines: the unit-circle failure (1a) and the
// single-scale repair (1b).
type Table1 struct {
	// Unit-circle interpolation of numerator and denominator (Table 1a):
	// Raw carries the complex outputs whose imaginary residue is the
	// paper's round-off exhibit.
	UnitNum, UnitDen interp.Result
	// Fixed-scale interpolation (Table 1b) and the mean-value scale pair
	// used.
	FixedNum, FixedDen interp.Result
	FScale, GScale     float64
	// Valid regions of the fixed-scale runs (σ = 6).
	NumLo, NumHi, DenLo, DenHi int
}

// OTATable1 computes Table 1a/1b on the positive-feedback OTA with the
// paper's a-priori order estimate (the capacitor count).
func OTATable1() (*Table1, error) {
	c := circuits.OTA()
	inp, inn, out := circuits.OTAInputs()
	eng, err := engine.New(engine.Config{})
	if err != nil {
		return nil, err
	}
	f, err := eng.Formulate(c, engine.Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out})
	if err != nil {
		return nil, err
	}
	bound := c.NumCapacitors()
	f.TF.Num.OrderBound = bound
	f.TF.Den.OrderBound = bound
	ctx := context.Background()
	t := &Table1{}
	if t.UnitNum, t.UnitDen, err = eng.Interpolate(ctx, f, 1, 1); err != nil {
		return nil, err
	}
	t.FScale, t.GScale = engine.DefaultScales(c)
	if t.FixedNum, t.FixedDen, err = eng.Interpolate(ctx, f, t.FScale, t.GScale); err != nil {
		return nil, err
	}
	t.NumLo, t.NumHi, _ = interp.ValidRegion(t.FixedNum.Normalized, 6)
	t.DenLo, t.DenHi, _ = interp.ValidRegion(t.FixedDen.Normalized, 6)
	return t, nil
}

// UA741 is the µA741 circuit with its differential-gain spec, the
// circuit of Tables 2–3 and Fig. 2.
func UA741() (*circuit.Circuit, engine.Spec) {
	inp, inn, out := circuits.UA741Inputs()
	return circuits.UA741(), engine.Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out}
}

// UA741Denominator runs the adaptive generator on the µA741 denominator
// with the paper's mean-value seeds. The returned M is the homogeneity
// degree needed to denormalize iteration records for display.
func UA741Denominator(noReduce bool) (*core.Result, int, error) {
	c, spec := UA741()
	eng, err := engine.New(engine.Config{Options: engine.Options{NoReduce: noReduce}})
	if err != nil {
		return nil, 0, err
	}
	resp, err := eng.Generate(context.Background(), engine.Request{Circuit: c, Spec: spec})
	if err != nil {
		return nil, 0, err
	}
	return resp.Den, resp.Den.M, nil
}

// Fig2Data holds a Fig. 2 comparison.
type Fig2Data struct {
	// Resp holds the generated references.
	Resp             *engine.Response
	Freqs            []float64
	Interp, Direct   []bode.Point
	MagErrDB, PhsErr float64
}

// Fig2 is the paper's Fig. 2 check for any circuit and spec: it
// generates references with the adaptive algorithm, computes the Bode
// response at freqs from the coefficients and from a direct MNA AC
// sweep (the "electrical simulator" path), and reports the worst
// deviations. The paper's own setup is UA741 over bode.LogSpace(1, 1e8, n).
func Fig2(c *circuit.Circuit, spec engine.Spec, freqs []float64) (*Fig2Data, error) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	d := &Fig2Data{Freqs: freqs}
	d.Resp, err = eng.Generate(ctx, engine.Request{Circuit: c, Spec: spec})
	if err != nil {
		return nil, err
	}
	d.Interp, err = bode.FromPolys(d.Resp.Num.Poly(), d.Resp.Den.Poly(), freqs)
	if err != nil {
		return nil, err
	}
	h, err := eng.ACResponse(ctx, c, spec, freqs)
	if err != nil {
		return nil, err
	}
	d.Direct = bode.FromComplexResponse(freqs, h)
	d.MagErrDB, d.PhsErr, err = bode.Compare(d.Interp, d.Direct)
	if err != nil {
		return nil, err
	}
	return d, nil
}
