package repro_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dft"
	"repro/internal/interp"
	"repro/internal/nodal"
	"repro/internal/xmath"
)

// These tests pin the premise of the Hermitian half-circle scheme on the
// real benchmark fixtures: the evaluators compute polynomials with real
// coefficients through IEEE arithmetic that commutes with conjugation,
// so the value at a mirrored point s_{K−i} = conj(s_i) must equal the
// conjugate of the computed value at s_i bit for bit — on the serial
// path and on the worker pool alike.

func fixtureEvaluators(t *testing.T, fx fixture) []interp.Evaluator {
	t.Helper()
	c := fx.build(t)
	sys, err := nodal.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	var tf *interp.TransferFunction
	if fx.diff {
		tf, err = sys.DifferentialVoltageGain(c, fx.in, fx.inn, fx.out)
	} else {
		tf, err = sys.VoltageGain(c, fx.in, fx.out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return []interp.Evaluator{tf.Num, tf.Den}
}

func assertMirrorSymmetry(t *testing.T, label string, pts []complex128, values []xmath.XComplex) {
	t.Helper()
	k := len(pts)
	half := dft.HermitianHalf(k)
	for i := half; i < k; i++ {
		if want := values[k-i].Conj(); values[i] != want {
			t.Errorf("%s: value at mirrored point %d = %v, conj of point %d = %v (not bit-identical)",
				label, i, values[i], k-i, want)
		}
	}
}

func TestMirroredPointValuesBitIdenticalToConj(t *testing.T) {
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 4
	}
	const k = 21
	pts := dft.UnitCirclePoints(k)
	for _, fx := range fixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			for _, scale := range [][2]float64{{1, 1}, {4e11, 800}} {
				f, g := scale[0], scale[1]
				// Fresh systems per path so plan priming is identical.
				for _, ev := range fixtureEvaluators(t, fx) {
					serial, _ := ev.EvalPointsInto(context.Background(), make([]xmath.XComplex, k), pts, f, g, 1)
					assertMirrorSymmetry(t, fx.name+"/"+ev.Name+"/serial", pts, serial)
				}
				for _, ev := range fixtureEvaluators(t, fx) {
					par, _ := ev.EvalPointsInto(context.Background(), make([]xmath.XComplex, k), pts, f, g, workers)
					assertMirrorSymmetry(t, fx.name+"/"+ev.Name+"/parallel", pts, par)
				}
			}
		})
	}
}

// TestSolveReductionOnFixtures asserts the tentpole payoff end-to-end:
// generation with mirroring and the joint cache performs well under 60%
// of the matrix factorizations the unoptimized configuration needs
// (effective factorizations = solves dispatched − cache hits).
func TestSolveReductionOnFixtures(t *testing.T) {
	for _, fx := range fixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			run := func(noMirror, noJoint bool) int {
				c := fx.build(t)
				sys, err := nodal.Build(c)
				if err != nil {
					t.Fatal(err)
				}
				var tf *interp.TransferFunction
				if fx.diff {
					tf, err = sys.DifferentialVoltageGain(c, fx.in, fx.inn, fx.out)
				} else {
					tf, err = sys.VoltageGain(c, fx.in, fx.out)
				}
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.Config{Parallelism: 1, MaxIterations: fx.maxIters, NoMirror: noMirror, NoJoint: noJoint}
				num, den, err := core.GenerateTransferFunction(c, tf, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return num.TotalSolves - num.CacheHits + den.TotalSolves - den.CacheHits
			}
			before := run(true, true)
			after := run(false, false)
			if after*10 >= before*6 {
				t.Errorf("effective factorizations %d not below 60%% of baseline %d", after, before)
			}
		})
	}
}
