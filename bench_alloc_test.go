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
	"bytes"
	"context"
	"os"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/dft"
	"repro/internal/interp"
	"repro/internal/mna"
	"repro/internal/nodal"
	"repro/internal/xmath"
	"repro/pkg/engine"
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
		// bit-identity invariant and primes the shared pivot plan), then a
		// serial frame to compare with.
		parallel, err := ev.EvalPointsInto(ctx, make([]xmath.XComplex, half), fr.pts, fs, gs, 4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ev.EvalPointsInto(ctx, fr.values, fr.pts, fs, gs, 1); err != nil {
			b.Fatal(err)
		}
		for k := range fr.values {
			if fr.values[k] != parallel[k] {
				b.Fatalf("%s point %d: serial and parallel evaluation disagree", ev.Name, k)
			}
		}
		dft.HermitianInverseInto(fr.raw, fr.values, kUse, &fr.scratch)
	}

	op := func() {
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
	// One untimed op: serial evaluation pops the scratch on top of the
	// shared stack for each point and pushes it back, so every point of
	// every frame runs in that one scratch, which this op grows for all
	// of them. The timed op then starts in the steady state even at
	// -benchtime=1x.
	op()
	timeAlone(b, op)
}

// timeAlone reports allocations and times op b.N times on a single P.
// Allocation counts are process-wide, so a gated count must not see
// other goroutines allocate while the timer runs, as the runtime's own
// do once per process (the scavenger's first sleep grows its P's timer
// heap by 16 B). With one P nothing runs beside op, which neither
// blocks nor yields.
func timeAlone(b *testing.B, op func()) {
	b.Helper()
	b.ReportAllocs()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
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

// BenchmarkWireEncodeUA741 encodes the committed µA741 wire response
// (testdata/ua741_diffgain.json) once per op. The encoder sizes its
// buffer before it appends, so an op is exactly one allocation; the CI
// gate on allocs/op keeps reflection and a growing buffer out.
func BenchmarkWireEncodeUA741(b *testing.B) {
	raw, err := os.ReadFile("testdata/ua741_diffgain.json")
	if err != nil {
		b.Fatal(err)
	}
	w, _, _, err := engine.DecodeResponseJSON(raw)
	if err != nil {
		b.Fatal(err)
	}
	if got, err := engine.EncodeWireJSON(w); err != nil || !bytes.Equal(got, raw) {
		b.Fatalf("re-encoding the µA741 reference changed its bytes (err %v)", err)
	}
	timeAlone(b, func() {
		if _, err := engine.EncodeWireJSON(w); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkEncodeResponseUA741 times what a ua741-cold op and a service
// miss pay to encode a fresh µA741 generation: EncodeResponseJSON of the
// engine's response, conversion to the wire form included. The
// response's bytes must be the committed reference's. An op's
// allocations are the wire form's (the response, its two results, their
// coefficient and iteration lists, one buffer for every coefficient
// text) and the body, a count fixed by the layout, which the CI gate on
// allocs/op holds.
func BenchmarkEncodeResponseUA741(b *testing.B) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	inp, inn, out := circuits.UA741Inputs()
	resp, err := eng.Generate(context.Background(), engine.Request{
		Circuit: circuits.UA741(),
		Spec:    engine.Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out},
	})
	if err != nil {
		b.Fatal(err)
	}
	want, err := os.ReadFile("testdata/ua741_diffgain.json")
	if err != nil {
		b.Fatal(err)
	}
	if got, err := engine.EncodeResponseJSON(resp); err != nil || !bytes.Equal(got, want) {
		b.Fatalf("the µA741 generation does not encode as the committed reference (err %v)", err)
	}
	timeAlone(b, func() {
		if _, err := engine.EncodeResponseJSON(resp); err != nil {
			b.Fatal(err)
		}
	})
}
