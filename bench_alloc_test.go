// Zero-allocation gates for the steady-state hot path: one op is one
// full evaluation frame — a half-circle batch of determinant solves
// through the pooled evaluator scratch (shared-plan replay, reused
// factorization workspace) followed by the Hermitian inverse transform
// into reused buffers. After the priming frame, the op performs zero
// heap allocations; BenchmarkEvalBatch* report allocs/op and the CI
// benchjson compare gate pins them at 0 (lower-is-better, so a
// regression that re-introduces steady-state allocation fails the
// gate). The priming pass also cross-checks serial vs parallel
// dispatch bit for bit — the SharedPlan invariant the whole discipline
// rests on.
package repro_test

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/dft"
	"repro/internal/interp"
	"repro/internal/mna"
	"repro/internal/nodal"
	"repro/internal/xmath"
)

// benchEvalFrame measures the steady-state frame loop of polynomial
// evaluators: per evaluator, serial half-circle point solves into a
// reused value buffer, then the Hermitian inverse DFT into a reused
// coefficient buffer. One op runs one frame of each evaluator.
func benchEvalFrame(b *testing.B, ckt *circuit.Circuit, evs ...interp.Evaluator) {
	b.Helper()
	fs, gs := 1.0, 1.0
	if mc := ckt.MeanCapacitance(); mc > 0 {
		fs = 1 / mc
	}
	if mg := ckt.MeanConductance(); mg > 0 {
		gs = 1 / mg
	}
	type frame struct {
		ev      interp.Evaluator
		kUse    int
		pts     []complex128
		values  []xmath.XComplex
		raw     []xmath.XComplex
		scratch dft.Scratch
	}
	frames := make([]*frame, len(evs))
	ctx := context.Background()
	for i, ev := range evs {
		kUse := ev.OrderBound + 4 // window + guard slots, generator-style
		half := dft.HermitianHalf(kUse)
		fr := &frame{ev: ev, kUse: kUse, pts: dft.UnitCirclePoints(kUse)[:half],
			values: make([]xmath.XComplex, half), raw: make([]xmath.XComplex, kUse)}
		frames[i] = fr

		// Priming: the parallel pass first (it pins the serial-vs-parallel
		// bit-identity invariant and primes the shared pivot plan), then
		// two serial frames. Serial priming runs last so the scratch on top
		// of the evaluator free list — the one the timed loop will pop — is
		// the one the serial frames sized; the second pass covers any
		// remaining growth so the timed op starts in the steady state even
		// at -benchtime=1x.
		parallel, err := ev.EvalPointsCtx(ctx, fr.pts, fs, gs, 4)
		if err != nil {
			b.Fatal(err)
		}
		for range 2 {
			if _, err := ev.EvalPointsInto(ctx, fr.values, fr.pts, fs, gs, 1); err != nil {
				b.Fatal(err)
			}
		}
		for k := range fr.values {
			if fr.values[k] != parallel[k] {
				b.Fatalf("%s point %d: serial and parallel evaluation disagree", ev.Name, k)
			}
		}
		dft.HermitianInverseInto(fr.raw, fr.values, kUse, &fr.scratch)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fr := range frames {
			if _, err := fr.ev.EvalPointsInto(ctx, fr.values, fr.pts, fs, gs, 1); err != nil {
				b.Fatal(err)
			}
			out := dft.HermitianInverseInto(fr.raw, fr.values, fr.kUse, &fr.scratch)
			if out[0].Real().Zero() {
				b.Fatalf("%s: frame produced a zero constant coefficient", fr.ev.Name)
			}
		}
	}
}

func nodalDen(b *testing.B, ckt *circuit.Circuit, in, out string) interp.Evaluator {
	b.Helper()
	sys, err := nodal.Build(ckt)
	if err != nil {
		b.Fatal(err)
	}
	tf, err := sys.VoltageGain(ckt, in, out)
	if err != nil {
		b.Fatal(err)
	}
	return tf.Den
}

func mnaDet(b *testing.B, ckt *circuit.Circuit) interp.Evaluator {
	b.Helper()
	sys, err := mna.Build(ckt)
	if err != nil {
		b.Fatal(err)
	}
	return sys.DetEvaluator()
}

func BenchmarkEvalBatchBiquad(b *testing.B) {
	ckt := circuits.Biquad()
	in, out := circuits.BiquadNodes()
	benchEvalFrame(b, ckt, nodalDen(b, ckt, in, out))
}

func BenchmarkEvalBatchLadder40(b *testing.B) {
	ckt := circuits.RCLadder(40, 1e3, 1e-9)
	benchEvalFrame(b, ckt, nodalDen(b, ckt, "in", circuits.RCLadderOut(40)))
}

// BenchmarkEvalBatchUA741Diff is the paper's own path: one op is a frame
// of the µA741 differential-gain numerator (merged-row projection) and
// one of its denominator (shorted projection).
func BenchmarkEvalBatchUA741Diff(b *testing.B) {
	ckt := circuits.UA741()
	sys, err := nodal.Build(ckt)
	if err != nil {
		b.Fatal(err)
	}
	inp, inn, out := circuits.UA741Inputs()
	tf, err := sys.DifferentialVoltageGain(ckt, inp, inn, out)
	if err != nil {
		b.Fatal(err)
	}
	benchEvalFrame(b, ckt, tf.Num, tf.Den)
}

func BenchmarkEvalBatchMNABiquad(b *testing.B) {
	ckt := circuits.Biquad()
	benchEvalFrame(b, ckt, mnaDet(b, ckt))
}

func BenchmarkEvalBatchMNALadder40(b *testing.B) {
	ckt := circuits.RCLadder(40, 1e3, 1e-9)
	benchEvalFrame(b, ckt, mnaDet(b, ckt))
}
