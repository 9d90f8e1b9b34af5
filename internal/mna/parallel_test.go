package mna

import (
	"context"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dft"
	"repro/internal/interp"
	"repro/internal/xmath"
)

// mnaBatchCircuit exercises voltage-defined branches (V source, inductor)
// so the batch layer runs on a genuine MNA pattern, not a pure nodal one.
func mnaBatchCircuit() *circuit.Circuit {
	c := circuit.New("mna-batch")
	c.AddV("v1", "in", "0", 1)
	c.AddR("r1", "in", "a", 50)
	c.AddL("l1", "a", "b", 10e-6)
	c.AddC("c1", "b", "out", 100e-12)
	c.AddR("r2", "out", "0", 1e3)
	c.AddC("c2", "out", "0", 20e-12)
	return c
}

func TestMNABatchBitIdentical(t *testing.T) {
	pts := dft.UnitCirclePoints(16)
	mk := func(which int) interp.Evaluator {
		sys, err := Build(mnaBatchCircuit())
		if err != nil {
			t.Fatal(err)
		}
		if which == 0 {
			return sys.DetEvaluator()
		}
		tf, err := sys.TransferEvaluators("out")
		if err != nil {
			t.Fatal(err)
		}
		if which == 1 {
			return tf.Num
		}
		return tf.Den
	}
	for which, label := range []string{"det", "num", "den"} {
		serial := mk(which).EvalPoints(pts, 1e7, 1, 1)
		for _, workers := range []int{2, 4, 8} {
			ev := mk(which)
			if ev.EvalBatch == nil {
				t.Fatalf("%s: no EvalBatch", label)
			}
			got := ev.EvalBatch(context.Background(), pts, 1e7, 1, workers)
			for i := range got {
				if got[i] != serial[i] {
					t.Fatalf("%s workers=%d point %d: %v != %v", label, workers, i, got[i], serial[i])
				}
			}
		}
	}
}

func TestMNASharedPatternAcrossEvaluators(t *testing.T) {
	// Det and transfer evaluators share the system's one pivot plan: a
	// det evaluation must prime it for the numerator path and vice versa,
	// with values unchanged versus fresh systems.
	pts := dft.UnitCirclePoints(8)
	fresh := func() (*System, *interp.TransferFunction) {
		sys, err := Build(mnaBatchCircuit())
		if err != nil {
			t.Fatal(err)
		}
		tf, err := sys.TransferEvaluators("out")
		if err != nil {
			t.Fatal(err)
		}
		return sys, tf
	}
	sysA, tfA := fresh()
	_ = sysA.DetEvaluator().EvalPoints(pts, 1e7, 1, 1) // primes the plan
	numShared := tfA.Num.EvalPoints(pts, 1e7, 1, 1)

	_, tfB := fresh()
	numFresh := tfB.Num.EvalPoints(pts, 1e7, 1, 1)
	for i := range numShared {
		if numShared[i] != numFresh[i] {
			t.Fatalf("point %d: primed-by-det %v != fresh %v", i, numShared[i], numFresh[i])
		}
	}
}

// TestMNAEvalBothBitIdentical: the MNA joint mode runs the very same
// factorization the independent evaluators run (eqs. 8–10 already share
// it within numAt), so its values must match them bit for bit.
func TestMNAEvalBothBitIdentical(t *testing.T) {
	sys, err := Build(mnaBatchCircuit())
	if err != nil {
		t.Fatal(err)
	}
	tf, err := sys.TransferEvaluators("out")
	if err != nil {
		t.Fatal(err)
	}
	if tf.EvalBoth == nil || tf.BothReady == nil {
		t.Fatal("MNA transfer function lacks EvalBoth/BothReady")
	}
	if tf.BothReady() {
		t.Error("BothReady true before any evaluation")
	}
	for _, s := range dft.UnitCirclePoints(11) {
		n, d := tf.EvalBoth(s, 1e7, 1)
		if want := tf.Num.Eval(s, 1e7, 1); n != want {
			t.Errorf("numerator at s=%v: joint %v != independent %v", s, n, want)
		}
		if want := tf.Den.Eval(s, 1e7, 1); d != want {
			t.Errorf("denominator at s=%v: joint %v != independent %v", s, d, want)
		}
	}
	if !tf.BothReady() {
		t.Error("BothReady still false after evaluations")
	}
}

// TestConcurrentPrimingBatchAndEvalBoth: a det EvalBatch and the joint
// EvalBoth racing on a fresh system's one shared plan (run under -race
// in CI) both return the values of serial evaluation — each primes, if
// it gets there first, from the same first point.
func TestConcurrentPrimingBatchAndEvalBoth(t *testing.T) {
	pts := dft.UnitCirclePoints(16)
	fresh := func() (*System, *interp.TransferFunction) {
		sys, err := Build(mnaBatchCircuit())
		if err != nil {
			t.Fatal(err)
		}
		tf, err := sys.TransferEvaluators("out")
		if err != nil {
			t.Fatal(err)
		}
		return sys, tf
	}
	_, ref := fresh()
	wantDen := ref.Den.EvalPoints(pts, 1e7, 1, 1)
	wantNum := ref.Num.EvalPoints(pts, 1e7, 1, 1)

	sys, tf := fresh()
	var batch []xmath.XComplex
	both := make([][2]xmath.XComplex, len(pts))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		batch = sys.DetEvaluator().EvalBatch(context.Background(), pts, 1e7, 1, 2)
	}()
	go func() {
		defer wg.Done()
		for i, s := range pts {
			both[i][0], both[i][1] = tf.EvalBoth(s, 1e7, 1)
		}
	}()
	wg.Wait()
	for i := range pts {
		if batch[i] != wantDen[i] {
			t.Fatalf("point %d: batch det %v != serial %v", i, batch[i], wantDen[i])
		}
		if both[i][0] != wantNum[i] || both[i][1] != wantDen[i] {
			t.Fatalf("point %d: EvalBoth (%v, %v) != serial (%v, %v)", i, both[i][0], both[i][1], wantNum[i], wantDen[i])
		}
	}
}
