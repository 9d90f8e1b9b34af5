package nodal

import (
	"context"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dft"
	"repro/internal/interp"
	"repro/internal/sparse"
	"repro/internal/xmath"
)

// batchCircuit builds a small multi-node admittance circuit exercising
// all derived-determinant kinds.
func batchCircuit() *circuit.Circuit {
	c := circuit.New("batch")
	c.AddG("g1", "a", "0", 1e-3)
	c.AddG("g2", "a", "b", 2e-3)
	c.AddG("g3", "b", "c", 5e-4)
	c.AddG("g4", "c", "0", 1e-4)
	c.AddC("c1", "a", "0", 1e-12)
	c.AddC("c2", "b", "0", 2e-12)
	c.AddC("c3", "c", "b", 5e-13)
	c.AddVCCS("gm", "c", "0", "a", "b", 3e-3)
	return c
}

// assertBatchMatchesSerial checks EvalBatch against the serial Eval loop
// bit-for-bit at several worker counts, on fresh systems so the shared
// plan priming sequence is identical.
func assertBatchMatchesSerial(t *testing.T, mk func() interp.Evaluator, f, g float64) {
	t.Helper()
	pts := dft.UnitCirclePoints(24)
	serialEv := mk()
	serial := serialEv.EvalPoints(pts, f, g, 1)
	for _, workers := range []int{2, 4, 8} {
		ev := mk()
		if ev.EvalBatch == nil {
			t.Fatal("evaluator has no EvalBatch")
		}
		got := ev.EvalBatch(context.Background(), pts, f, g, workers)
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d point %d: batch %v != serial %v", workers, i, got[i], serial[i])
			}
		}
	}
}

func TestVoltageGainBatchBitIdentical(t *testing.T) {
	mkNum := func() interp.Evaluator {
		c := batchCircuit()
		sys, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		tf, err := sys.VoltageGain(c, "a", "c")
		if err != nil {
			t.Fatal(err)
		}
		return tf.Num
	}
	mkDen := func() interp.Evaluator {
		c := batchCircuit()
		sys, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		tf, err := sys.VoltageGain(c, "a", "c")
		if err != nil {
			t.Fatal(err)
		}
		return tf.Den
	}
	assertBatchMatchesSerial(t, mkNum, 1e9, 1e3)
	assertBatchMatchesSerial(t, mkDen, 1e9, 1e3)
}

func TestDifferentialGainBatchBitIdentical(t *testing.T) {
	mk := func(which int) func() interp.Evaluator {
		return func() interp.Evaluator {
			c := batchCircuit()
			sys, err := Build(c)
			if err != nil {
				t.Fatal(err)
			}
			tf, err := sys.DifferentialVoltageGain(c, "a", "b", "c")
			if err != nil {
				t.Fatal(err)
			}
			if which == 0 {
				return tf.Num
			}
			return tf.Den
		}
	}
	assertBatchMatchesSerial(t, mk(0), 5e8, 200)
	assertBatchMatchesSerial(t, mk(1), 5e8, 200)
}

func TestTransimpedanceBatchBitIdentical(t *testing.T) {
	mk := func() interp.Evaluator {
		c := batchCircuit()
		sys, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		tf, err := sys.Transimpedance(c, "a", "c")
		if err != nil {
			t.Fatal(err)
		}
		return tf.Den
	}
	assertBatchMatchesSerial(t, mk, 1e9, 1e3)
}

// TestProjectionMatchesLegacyForms cross-checks the stamp-projection
// assembly against the reference construction through the full matrix
// (MatrixAt + Minor), which the pre-batch implementation used.
func TestProjectionMatchesLegacyForms(t *testing.T) {
	c := batchCircuit()
	sys, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	s := complex(0.3, 0.7)
	f, g := 2e9, 500.0
	full := sys.MatrixAt(s, f, g)
	for r := 0; r < sys.N(); r++ {
		for cc := 0; cc < sys.N(); cc++ {
			want := full.Minor([]int{r}, []int{cc}).Det()
			if cofactorSign(r, cc) < 0 {
				want = want.Neg()
			}
			got := sys.Cofactor(r, cc, s, f, g)
			if !got.Real().ApproxEqual(want.Real(), 1e-12) || !got.Imag().ApproxEqual(want.Imag(), 1e-12) {
				t.Fatalf("cofactor (%d,%d): %v vs %v", r, cc, got, want)
			}
		}
	}
	if got, want := sys.Det(s, f, g), full.Det(); !got.Real().ApproxEqual(want.Real(), 1e-12) {
		t.Fatalf("det: %v vs %v", got, want)
	}
}

// TestPlanMissFallsBackAndKeepsPlan: at a point where the planned first
// pivot vanishes exactly, the compiled replay misses, the determinant is
// the fresh full factorization's, and the next point still replays the
// unchanged shared plan.
func TestPlanMissFallsBackAndKeepsPlan(t *testing.T) {
	// Y = [[1+s, −1], [−1, 1.1]]: priming at s = j pivots on Y_aa first
	// (the largest of four equal-cost entries); Y_aa is exactly 0 at s = −1.
	mk := func() *System {
		c := circuit.New("miss")
		c.AddG("gab", "a", "b", 1).AddC("ca", "a", "0", 1).AddG("gb", "b", "0", 0.1)
		sys, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	prime, miss, next := complex(0, 1), complex(-1, 0), complex(0.6, 0.8)
	sys := mk()
	pat := sys.detPattern()
	sys.Det(prime, 1, 1)

	sc := pat.get()
	sc.ws.Begin(&pat.plan, pat.proj.dim)
	sys.assembleInto(&sc.ws, &pat.proj, miss, 1, 1)
	if _, err := sc.ws.Factor(); err != sparse.ErrPlanMiss {
		t.Fatalf("replay at s=%v: err = %v, want ErrPlanMiss", miss, err)
	}
	pat.put(sc)

	full, err := sys.MatrixAt(miss, 1, 1).FactorInPlace(sparse.DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sys.Det(miss, 1, 1), full.Det(); got != want {
		t.Fatalf("det at the miss = %v, fresh FactorInPlace %v", got, want)
	}

	// The next point replays (no miss) and matches a system that never
	// saw the miss.
	sc = pat.get()
	sc.ws.Begin(&pat.plan, pat.proj.dim)
	sys.assembleInto(&sc.ws, &pat.proj, next, 1, 1)
	if _, err := sc.ws.Factor(); err != nil {
		t.Fatalf("replay after the miss: %v", err)
	}
	pat.put(sc)
	clean := mk()
	clean.Det(prime, 1, 1)
	if got, want := sys.Det(next, 1, 1), clean.Det(next, 1, 1); got != want {
		t.Fatalf("det after the miss = %v, without it %v", got, want)
	}
}

// TestConcurrentFirstCompile: two EvalBatch calls racing on a fresh
// pattern's priming and compile (run under -race in CI) both return the
// serial values bit for bit — both prime from the same first point.
func TestConcurrentFirstCompile(t *testing.T) {
	pts := dft.UnitCirclePoints(24)
	mk := func() interp.Evaluator {
		c := batchCircuit()
		sys, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		tf, err := sys.DifferentialVoltageGain(c, "a", "b", "c")
		if err != nil {
			t.Fatal(err)
		}
		return tf.Num
	}
	serial := mk().EvalPoints(pts, 1e12, 1e3, 1)
	ev := mk()
	var got [2][]xmath.XComplex
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got[k] = ev.EvalBatch(context.Background(), pts, 1e12, 1e3, 2)
		}(k)
	}
	wg.Wait()
	for k := range got {
		for i := range serial {
			if got[k][i] != serial[i] {
				t.Fatalf("batch %d point %d: %v != serial %v", k, i, got[k][i], serial[i])
			}
		}
	}
}
