package nodal

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

// evalPoints evaluates ev at every point of pts through EvalPointsInto.
func evalPoints(t testing.TB, ev interp.Evaluator, pts []complex128, f, g float64, parallelism int) []xmath.XComplex {
	t.Helper()
	values, err := ev.EvalPointsInto(context.Background(), make([]xmath.XComplex, len(pts)), pts, f, g, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return values
}

// assertBatchMatchesSerial checks EvalBatch against the serial Eval loop
// bit-for-bit at several worker counts, on fresh systems so the shared
// plan priming sequence is identical.
func assertBatchMatchesSerial(t *testing.T, mk func() interp.Evaluator, f, g float64) {
	t.Helper()
	pts := dft.UnitCirclePoints(24)
	serialEv := mk()
	serial := evalPoints(t, serialEv, pts, f, g, 1)
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
// (matrixAt + Minor), which the pre-batch implementation used.
func TestProjectionMatchesLegacyForms(t *testing.T) {
	c := batchCircuit()
	sys, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	s := complex(0.3, 0.7)
	f, g := 2e9, 500.0
	full := sys.matrixAt(s, f, g)
	for r := 0; r < sys.N(); r++ {
		for cc := 0; cc < sys.N(); cc++ {
			want := full.Minor([]int{r}, []int{cc}).Det()
			if cofactorSign(r, cc) < 0 {
				want = want.Neg()
			}
			got := sys.cofactorPattern(r, cc).detPooled(s, f, g)
			if !got.Real().ApproxEqual(want.Real(), 1e-12) || !got.Imag().ApproxEqual(want.Imag(), 1e-12) {
				t.Fatalf("cofactor (%d,%d): %v vs %v", r, cc, got, want)
			}
		}
	}
	if got, want := sys.detPattern().detPooled(s, f, g), full.Det(); !got.Real().ApproxEqual(want.Real(), 1e-12) {
		t.Fatalf("det: %v vs %v", got, want)
	}
}

// missSystem builds Y = [[1+s, −1], [−1, 1.1]]: priming at s = j pivots
// on Y_aa first (the largest of four equal-cost entries), and Y_aa is
// exactly 0 at s = −1, so a replay there misses.
func missSystem(t *testing.T) *System {
	t.Helper()
	c := circuit.New("miss")
	c.AddG("gab", "a", "b", 1).AddC("ca", "a", "0", 1).AddG("gb", "b", "0", 0.1)
	sys, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestPlanMissFallsBackAndKeepsPlan: at a point where the planned first
// pivot vanishes exactly, the compiled replay misses, the determinant is
// the fresh full factorization's, and the next point still replays the
// unchanged shared plan.
func TestPlanMissFallsBackAndKeepsPlan(t *testing.T) {
	mk := func() *System { return missSystem(t) }
	prime, miss, next := complex(0, 1), complex(-1, 0), complex(0.6, 0.8)
	sys := mk()
	pat := sys.detPattern()
	pat.detPooled(prime, 1, 1)

	sc := sparse.GetScratch()
	sc.WS.Assemble(&pat.plan, pat.assembly(), miss, 1, 1)
	if _, err := sc.WS.Factor(); err != sparse.ErrPlanMiss {
		t.Fatalf("replay at s=%v: err = %v, want ErrPlanMiss", miss, err)
	}
	sparse.PutScratch(sc)

	full, err := sys.matrixAt(miss, 1, 1).Factor(sparse.DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pat.detPooled(miss, 1, 1), full.Det(); got != want {
		t.Fatalf("det at the miss = %v, fresh Factor %v", got, want)
	}

	// The next point replays (no miss) and matches a system that never
	// saw the miss.
	sc = sparse.GetScratch()
	sc.WS.Assemble(&pat.plan, pat.assembly(), next, 1, 1)
	if _, err := sc.WS.Factor(); err != nil {
		t.Fatalf("replay after the miss: %v", err)
	}
	sparse.PutScratch(sc)
	clean := mk().detPattern()
	clean.detPooled(prime, 1, 1)
	if got, want := pat.detPooled(next, 1, 1), clean.detPooled(next, 1, 1); got != want {
		t.Fatalf("det after the miss = %v, without it %v", got, want)
	}
}

// TestPlanMissFallbackReusesScratch: the full factorization a plan miss
// falls back to gives exactly the fresh Factor determinant, and
// once a scratch has been through one fallback, repeating it through the
// same scratch allocates nothing.
func TestPlanMissFallbackReusesScratch(t *testing.T) {
	sys := missSystem(t)
	prime, miss := complex(0, 1), complex(-1, 0)
	pat := sys.detPattern()
	pat.detPooled(prime, 1, 1)
	full, err := sys.matrixAt(miss, 1, 1).Factor(sparse.DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	want := full.Det()

	sc := sparse.GetScratch()
	defer sparse.PutScratch(sc)
	sc.WS.Assemble(&pat.plan, pat.assembly(), miss, 1, 1)
	if _, err := sc.WS.Factor(); err != sparse.ErrPlanMiss {
		t.Fatalf("replay at s=%v: err = %v, want ErrPlanMiss", miss, err)
	}
	if got := pat.detAt(sc, miss, 1, 1); got != want {
		t.Fatalf("fallback det = %v, fresh Factor %v", got, want)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if got := pat.detAt(sc, miss, 1, 1); got != want {
			t.Fatalf("repeated fallback det = %v, want %v", got, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("repeated fallback: %v allocs/run, want 0", allocs)
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
	serial := evalPoints(t, mk(), pts, 1e12, 1e3, 1)
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

// TestLanesMatchRecordingReplay: the determinant-only lane replay behind
// every nodal evaluator gives each point the bits the recording replay
// (FactorAssembly, then LU.Det) gives it alone — on the µA741's
// differential-gain patterns at the seed scales, at Parallelism 1, 2 and
// 3, and at point counts that end a batch on every tail of a pass.
func TestLanesMatchRecordingReplay(t *testing.T) {
	u := circuits.UA741()
	inp, inn, out := circuits.UA741Inputs()
	ip, in, o := u.NodeIndex(inp), u.NodeIndex(inn), u.NodeIndex(out)
	f, g, _, _ := u.SeedScales()
	pts := dft.UnitCirclePoints(49)[:25]
	build := func() *System {
		sys, err := Build(u)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	for which, pattern := range []func(*System) *bound{
		func(sys *System) *bound { return sys.mergedRowsPattern(ip, in, o) },
		func(sys *System) *bound { return sys.shortedPattern(ip, in) },
	} {
		b := pattern(build())
		var sc sparse.Scratch
		want := make([]xmath.XComplex, len(pts))
		for i, s := range pts {
			lu, err := b.factorAt(&sc, s, f, g)
			if err != nil {
				t.Fatal(err)
			}
			if want[i] = lu.Det(); b.proj.sign < 0 {
				want[i] = want[i].Neg()
			}
		}
		for _, n := range []int{1, 2, 3, 5, 25} {
			for _, par := range []int{1, 2, 3} {
				tf, err := build().DifferentialVoltageGain(u, inp, inn, out)
				if err != nil {
					t.Fatal(err)
				}
				ev := []interp.Evaluator{tf.Num, tf.Den}[which]
				for i, got := range evalPoints(t, ev, pts[:n], f, g, par) {
					if got != want[i] {
						t.Fatalf("%s, %d points, parallelism %d: point %d = %v, recording replay %v", ev.Name, n, par, i, got, want[i])
					}
				}
			}
		}
	}
}

// jointPoints evaluates tf's joint chunk form at pts the way the
// generator's joint cache does: through interp.RunChunks in chunks of
// sparse.Lanes on par workers, point by point until BothReady.
func jointPoints(tf *interp.TransferFunction, pts []complex128, f, g float64, par int) (num, den []xmath.XComplex) {
	den = make([]xmath.XComplex, len(pts))
	num = interp.RunChunks(context.Background(), pts, par, sparse.Lanes, tf.BothReady, func() func([]xmath.XComplex, []complex128) {
		return func(dst []xmath.XComplex, p []complex128) {
			i := cap(pts) - cap(p) // p is pts[i:j]
			tf.EvalBothChunk(dst, den[i:i+len(p)], p, f, g)
		}
	})
	return num, den
}

// TestSolveLanesMatchRecordingReplay: the joint Cramer path — the lane
// replay with a right-hand side — gives each point the bits the
// recording replay and its solve (FactorAssembly, LU.Det, LU.SolveInto)
// give it alone, on the biquad and RC ladder40/60 voltage gains and the
// µA741 transimpedance at the seed scales, at Parallelism 1, 2 and 3, and
// at point counts that end a batch on every tail of a pass.
func TestSolveLanesMatchRecordingReplay(t *testing.T) {
	bin, bout := circuits.BiquadNodes()
	uin, _, uout := circuits.UA741Inputs()
	for _, c := range []struct {
		name    string
		ckt     *circuit.Circuit
		in, out string
		transz  bool
	}{
		{"biquad", circuits.Biquad(), bin, bout, false},
		{"ladder40", circuits.RCLadder(40, 1e3, 1e-9), "in", circuits.RCLadderOut(40), false},
		{"ladder60", circuits.RCLadder(60, 1e3, 1e-9), "in", circuits.RCLadderOut(60), false},
		{"ua741-transz", circuits.UA741(), uin, uout, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			i, o := c.ckt.NodeIndex(c.in), c.ckt.NodeIndex(c.out)
			f, g, _, _ := c.ckt.SeedScales()
			pts := dft.UnitCirclePoints(49)[:25]
			build := func() (*System, *interp.TransferFunction) {
				sys, err := Build(c.ckt)
				if err != nil {
					t.Fatal(err)
				}
				mk := sys.VoltageGain
				if c.transz {
					mk = sys.Transimpedance
				}
				tf, err := mk(c.ckt, c.in, c.out)
				if err != nil {
					t.Fatal(err)
				}
				return sys, tf
			}
			sys, _ := build()
			b := sys.detPattern()
			var sc sparse.Scratch
			wantNum, wantDen := make([]xmath.XComplex, len(pts)), make([]xmath.XComplex, len(pts))
			for k, s := range pts {
				lu, err := b.factorAt(&sc, s, f, g)
				if err != nil {
					t.Fatal(err)
				}
				det := lu.Det()
				rhs, x := sc.Vectors(sys.n, 1)
				rhs[i] = 1
				if err := lu.SolveInto(x, rhs, &sc.WS); err != nil {
					t.Fatal(err)
				}
				wantNum[k], wantDen[k] = cramerValue(det, x, o), cramerValue(det, x, i)
				if c.transz {
					wantDen[k] = det
				}
			}
			for _, n := range []int{1, 2, 3, 5, 25} {
				for _, par := range []int{1, 2, 3} {
					_, tf := build()
					num, den := jointPoints(tf, pts[:n], f, g, par)
					for k := range n {
						if num[k] != wantNum[k] || den[k] != wantDen[k] {
							t.Fatalf("%d points, parallelism %d: point %d = (%v, %v), recording replay (%v, %v)", n, par, k, num[k], den[k], wantNum[k], wantDen[k])
						}
					}
				}
			}
		})
	}
}
