package mna

import (
	"context"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/dft"
	"repro/internal/interp"
	"repro/internal/sparse"
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
	// Point counts that end a batch on every tail of a lane pass.
	for which, label := range []string{"det", "num", "den"} {
		serial := evalPoints(t, mk(which), pts, 1e7, 1, 1)
		for _, n := range []int{1, 2, 3, 5, len(pts)} {
			for _, workers := range []int{2, 3, 4, 8} {
				ev := mk(which)
				if ev.EvalBatch == nil {
					t.Fatalf("%s: no EvalBatch", label)
				}
				got := ev.EvalBatch(context.Background(), pts[:n], 1e7, 1, workers)
				for i := range got {
					if got[i] != serial[i] {
						t.Fatalf("%s %d points workers=%d point %d: %v != %v", label, n, workers, i, got[i], serial[i])
					}
				}
			}
		}
	}
}

// evalPoints evaluates ev at every point of pts through EvalPointsInto.
func evalPoints(t testing.TB, ev interp.Evaluator, pts []complex128, f, g float64, parallelism int) []xmath.XComplex {
	t.Helper()
	values, err := ev.EvalPointsInto(context.Background(), make([]xmath.XComplex, len(pts)), pts, f, g, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return values
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
	evalPoints(t, sysA.DetEvaluator(), pts, 1e7, 1, 1) // primes the plan
	numShared := evalPoints(t, tfA.Num, pts, 1e7, 1, 1)

	_, tfB := fresh()
	numFresh := evalPoints(t, tfB.Num, pts, 1e7, 1, 1)
	for i := range numShared {
		if numShared[i] != numFresh[i] {
			t.Fatalf("point %d: primed-by-det %v != fresh %v", i, numShared[i], numFresh[i])
		}
	}
}

// TestMNAEvalBothBitIdentical: the MNA joint mode runs the very same
// factorization the independent evaluators run (eqs. 8–10 already share
// it within nums), so its values — the points in one chunk — must match
// theirs, one point at a time, bit for bit.
func TestMNAEvalBothBitIdentical(t *testing.T) {
	sys, err := Build(mnaBatchCircuit())
	if err != nil {
		t.Fatal(err)
	}
	tf, err := sys.TransferEvaluators("out")
	if err != nil {
		t.Fatal(err)
	}
	if tf.EvalBothChunk == nil || tf.BothReady == nil {
		t.Fatal("MNA transfer function lacks EvalBothChunk/BothReady")
	}
	if tf.BothReady() {
		t.Error("BothReady true before any evaluation")
	}
	pts := dft.UnitCirclePoints(11)
	n, d := make([]xmath.XComplex, len(pts)), make([]xmath.XComplex, len(pts))
	tf.EvalBothChunk(n[:1], d[:1], pts[:1], 1e7, 1) // primes the plan
	tf.EvalBothChunk(n[1:], d[1:], pts[1:], 1e7, 1)
	for i, s := range pts {
		if want := tf.Num.Eval(s, 1e7, 1); n[i] != want {
			t.Errorf("numerator at s=%v: joint %v != independent %v", s, n[i], want)
		}
		if want := tf.Den.Eval(s, 1e7, 1); d[i] != want {
			t.Errorf("denominator at s=%v: joint %v != independent %v", s, d[i], want)
		}
	}
	if !tf.BothReady() {
		t.Error("BothReady still false after evaluations")
	}
}

// TestConcurrentPrimingBatchAndEvalBoth: a det EvalBatch and the joint
// chunk form, in chunks of three points, racing on a fresh system's one
// shared plan (run under -race in CI) both return the values of serial
// evaluation — each primes, if it gets there first, from the same first
// point.
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
	wantDen := evalPoints(t, ref.Den, pts, 1e7, 1, 1)
	wantNum := evalPoints(t, ref.Num, pts, 1e7, 1, 1)

	sys, tf := fresh()
	var batch []xmath.XComplex
	num, den := make([]xmath.XComplex, len(pts)), make([]xmath.XComplex, len(pts))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		batch = sys.DetEvaluator().EvalBatch(context.Background(), pts, 1e7, 1, 2)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < len(pts); i += 3 {
			j := min(i+3, len(pts))
			tf.EvalBothChunk(num[i:j], den[i:j], pts[i:j], 1e7, 1)
		}
	}()
	wg.Wait()
	for i := range pts {
		if batch[i] != wantDen[i] {
			t.Fatalf("point %d: batch det %v != serial %v", i, batch[i], wantDen[i])
		}
		if num[i] != wantNum[i] || den[i] != wantDen[i] {
			t.Fatalf("point %d: joint (%v, %v) != serial (%v, %v)", i, num[i], den[i], wantNum[i], wantDen[i])
		}
	}
}

// TestMNAEvalAllocatesNothing: once the plan is primed and the scratch
// pool holds a workspace, a single-point Eval of the determinant and of
// the numerator allocates nothing.
func TestMNAEvalAllocatesNothing(t *testing.T) {
	sys, err := Build(mnaBatchCircuit())
	if err != nil {
		t.Fatal(err)
	}
	tf, err := sys.TransferEvaluators("out")
	if err != nil {
		t.Fatal(err)
	}
	s := complex(0.6, 0.8)
	for _, ev := range []interp.Evaluator{sys.DetEvaluator(), tf.Num} {
		ev.Eval(s, 1e7, 1)
		if allocs := testing.AllocsPerRun(20, func() { ev.Eval(s, 1e7, 1) }); allocs != 0 {
			t.Fatalf("%s: %v allocs per Eval, want 0", ev.Name, allocs)
		}
	}
}

// TestSolveLanesMatchRecordingReplay: the MNA numerator and the joint
// form — the lane replay with the sources as right-hand side — give each
// point of the fifth-order LC ladder the bits the recording replay and
// its solve (FactorAssembly, LU.Det, LU.SolveInto) give it alone, at
// Parallelism 1, 2 and 3 and at point counts that end a batch on every
// tail of a pass.
func TestSolveLanesMatchRecordingReplay(t *testing.T) {
	c := circuits.LCLadder(5, 50, 1e6)
	f, _, _, _ := c.SeedScales()
	pts := dft.UnitCirclePoints(11)[:6]
	build := func() (*System, *interp.TransferFunction) {
		sys, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		tf, err := sys.TransferEvaluators("out")
		if err != nil {
			t.Fatal(err)
		}
		return sys, tf
	}
	sys, _ := build()
	idx := c.NodeIndex("out")
	var sc sparse.Scratch
	wantNum, wantDen := make([]xmath.XComplex, len(pts)), make([]xmath.XComplex, len(pts))
	for k, s := range pts {
		lu, err := sc.WS.FactorAssembly(sys.detPlan, &sys.asm, s, f, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantDen[k] = lu.Det()
		rhs, x := sc.Vectors(sys.dim, 1)
		for i, v := range sys.rhs {
			rhs[i] = complex(v, 0)
		}
		if err := lu.SolveInto(x, rhs, &sc.WS); err != nil {
			t.Fatal(err)
		}
		wantNum[k] = transferValue(wantDen[k], x[idx])
	}
	for _, n := range []int{1, 2, 3, 5, 6} {
		for _, par := range []int{1, 2, 3} {
			_, tf := build()
			for k, got := range evalPoints(t, tf.Num, pts[:n], f, 1, par) {
				if got != wantNum[k] {
					t.Fatalf("numerator, %d points, parallelism %d: point %d = %v, recording replay %v", n, par, k, got, wantNum[k])
				}
			}
			_, tf = build()
			den := make([]xmath.XComplex, n)
			num := interp.RunChunks(context.Background(), pts[:n], par, sparse.Lanes, tf.BothReady, func() func([]xmath.XComplex, []complex128) {
				return func(dst []xmath.XComplex, p []complex128) {
					i := cap(pts) - cap(p) // p is pts[i:j]
					tf.EvalBothChunk(dst, den[i:i+len(p)], p, f, 1)
				}
			})
			for k := range n {
				if num[k] != wantNum[k] || den[k] != wantDen[k] {
					t.Fatalf("joint, %d points, parallelism %d: point %d = (%v, %v), recording replay (%v, %v)", n, par, k, num[k], den[k], wantNum[k], wantDen[k])
				}
			}
		}
	}
}
