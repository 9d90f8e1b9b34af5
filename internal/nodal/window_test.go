package nodal

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/interp"
)

// randomPattern builds a d×d pattern: each entry is empty or carries one
// or two conductance stamps, one or two capacitance stamps, or both,
// with small integer values (repeats exercise the merge). The
// stamps are listed conductances first, as newPattern resolves them.
// It also returns the entries' polynomial coefficients g + c·s.
func randomPattern(rng *rand.Rand, d, density int) (*pattern, [][][2]int64) {
	entry := make([][][2]int64, d)
	var gpos, cpos [][2]int32
	// Values in −2..5: zero and cancelling sums are allowed, since the
	// window is structural and must bound the exact determinant anyway.
	val := func() int64 { return int64(rng.Intn(5) - 2 + 3*rng.Intn(2)) }
	for i := range entry {
		entry[i] = make([][2]int64, d)
		for j := range entry[i] {
			if rng.Intn(8) >= density {
				continue
			}
			kind := 1 + rng.Intn(3) // 1: G, 2: C, 3: both
			for k := 0; k < 1+rng.Intn(2); k++ {
				ij := [2]int32{int32(i), int32(j)}
				if kind&entryG != 0 {
					gpos = append(gpos, ij)
					entry[i][j][0] += val()
				}
				if kind&entryC != 0 {
					cpos = append(cpos, ij)
					entry[i][j][1] += val()
				}
			}
		}
	}
	// Shuffle stamp order within each class: the window must not depend
	// on it.
	rng.Shuffle(len(gpos), func(a, b int) { gpos[a], gpos[b] = gpos[b], gpos[a] })
	rng.Shuffle(len(cpos), func(a, b int) { cpos[a], cpos[b] = cpos[b], cpos[a] })
	pat := &pattern{proj: projection{dim: d}, pos: append(gpos, cpos...), ng: len(gpos)}
	return pat, entry
}

// bruteWindow expands the determinant over all d! permutations: the
// structural window is the max over complete terms of the capacitive
// entry count and the min of the capacitance-only entry count. kinds
// holds each entry's stamp kinds (0 = empty). It also returns the exact
// determinant polynomial of the entry values.
func bruteWindow(kinds [][]uint8, vals [][][2]int64) (interp.DegreeWindow, []int64) {
	d := len(kinds)
	w := interp.DegreeWindow{Lo: d + 1, Hi: -1}
	det := make([]int64, d+1)
	perm := make([]int, d)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int, sign int64)
	rec = func(k int, sign int64) {
		if k == d {
			lo, hi := 0, 0
			term := []int64{sign}
			for i, j := range perm {
				kd := kinds[i][j]
				if kd == 0 {
					return
				}
				if kd&entryC != 0 {
					hi++
				}
				if kd&entryG == 0 {
					lo++
				}
				g, c := vals[i][j][0], vals[i][j][1]
				next := make([]int64, len(term)+1)
				for p, t := range term {
					next[p] += t * g
					next[p+1] += t * c
				}
				term = next
			}
			w.Lo, w.Hi = min(w.Lo, lo), max(w.Hi, hi)
			for p, t := range term {
				det[p] += t
			}
			return
		}
		for i := k; i < d; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			s := sign
			if i != k {
				s = -s
			}
			rec(k+1, s)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0, 1)
	if w.Hi < 0 {
		w = interp.DegreeWindow{Lo: 1, Hi: 0}
	}
	return w, det
}

// checkWindow compares the matcher's window of pat against brute force,
// and requires every exact determinant coefficient outside it to be 0.
func checkWindow(t *testing.T, m *matcher, pat *pattern, vals [][][2]int64) {
	t.Helper()
	d := pat.proj.dim
	kinds := make([][]uint8, d)
	for i := range kinds {
		kinds[i] = make([]uint8, d)
	}
	for k, ij := range pat.pos {
		kd := uint8(entryG)
		if k >= pat.ng {
			kd = entryC
		}
		kinds[ij[0]][ij[1]] |= kd
	}
	want, det := bruteWindow(kinds, vals)
	got := m.structuralWindow(pat)
	if (got.Lo > got.Hi) != (want.Lo > want.Hi) || (want.Lo <= want.Hi && got != want) {
		t.Fatalf("d=%d kinds=%v: window %+v, brute force %+v", d, kinds, got, want)
	}
	for p, v := range det {
		if v != 0 && (p < got.Lo || p > got.Hi) {
			t.Fatalf("d=%d kinds=%v: det coefficient s^%d = %d outside window %+v", d, kinds, p, v, got)
		}
	}
}

// FuzzStructuralWindow checks the matching-based window on random
// patterns up to d = 7 against brute-force permutation expansion, and
// that the exact determinant has no nonzero coefficient outside it.
// One matcher serves every pattern, as the process-wide one does.
func FuzzStructuralWindow(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(6))
	f.Add(int64(2), uint8(7), uint8(3))
	f.Add(int64(3), uint8(6), uint8(8))
	f.Add(int64(4), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, dim, density uint8) {
		rng := rand.New(rand.NewSource(seed))
		var m matcher
		for rep := 0; rep < 4; rep++ {
			d := int(dim+uint8(rep)) % 8
			pat, vals := randomPattern(rng, d, 1+int(density)%8)
			checkWindow(t, &m, pat, vals)
		}
	})
}

// TestStructuralWindowFixtures pins the windows of the repository's
// reference fixtures: the µA741 differential gain (structural degrees 45
// and 47 under the capacitor-count bound 48) and the RC ladder, whose
// voltage-gain numerator is a constant.
func TestStructuralWindowFixtures(t *testing.T) {
	u := circuits.UA741()
	sys, err := Build(u)
	if err != nil {
		t.Fatal(err)
	}
	inp, inn, out := circuits.UA741Inputs()
	tf, err := sys.DifferentialVoltageGain(u, inp, inn, out)
	if err != nil {
		t.Fatal(err)
	}
	l := circuits.RCLadder(40, 1e3, 1e-12)
	lsys, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	ltf, err := lsys.VoltageGain(l, "in", circuits.RCLadderOut(40))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ev     interp.Evaluator
		bound  int
		lo, hi int
	}{
		{tf.Num, 48, 0, 45},
		{tf.Den, 48, 0, 47},
		{ltf.Num, 40, 0, 0},
		{ltf.Den, 40, 0, 40},
	} {
		lo, hi := tc.ev.DegreeWindow()
		if tc.ev.OrderBound != tc.bound || lo != tc.lo || hi != tc.hi {
			t.Errorf("%s: bound %d window [%d, %d], want %d [%d, %d]", tc.ev.Name, tc.ev.OrderBound, lo, hi, tc.bound, tc.lo, tc.hi)
		}
	}
}

// TestAdoptedPatternsShareWindow: a system built over a donor's
// topology (a point copy of the donor's circuit) reuses the donor's
// computed window rather than matching again.
func TestAdoptedPatternsShareWindow(t *testing.T) {
	// b is circuits.RCLadder(6, 2e3, 3e-12) over a's element list.
	a := circuits.RCLadder(6, 1e3, 1e-12)
	vals := make([]float64, a.NumElements())
	for i := range vals {
		vals[i] = 2 * a.Value(i)
		if a.Element(i).Kind == circuit.Capacitor {
			vals[i] = 3 * a.Value(i)
		}
	}
	b, err := a.WithValues(vals)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := sa.VoltageGain(a, "in", "n6")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := BuildShared(b, sa)
	if err != nil {
		t.Fatal(err)
	}
	if sb.top != sa.top {
		t.Fatal("a point copy of the donor's circuit did not share its topology")
	}
	tb, err := sb.VoltageGain(b, "in", "n6")
	if err != nil {
		t.Fatal(err)
	}
	if *ta.Den.Degrees != *tb.Den.Degrees {
		t.Errorf("adopted window %+v differs from the donor's %+v", *tb.Den.Degrees, *ta.Den.Degrees)
	}
	if k := a.NodeIndex("in"); sb.cofactorPattern(k, k).pattern != sa.cofactorPattern(k, k).pattern {
		t.Error("the adopting system made its own pattern, and so its own matching")
	}
}

// BenchmarkStructuralWindowUA741 measures what a cold µA741
// formulation pays for its two windows: four matchings (numerator and
// denominator, top and bottom degree) in one fresh matcher scratch.
func BenchmarkStructuralWindowUA741(b *testing.B) {
	u := circuits.UA741()
	sys, err := Build(u)
	if err != nil {
		b.Fatal(err)
	}
	inp, inn, out := circuits.UA741Inputs()
	ip, in, o := u.NodeIndex(inp), u.NodeIndex(inn), u.NodeIndex(out)
	num, den := sys.mergedRowsPattern(ip, in, o), sys.shortedPattern(ip, in)
	timeAlone(b, func() {
		var m matcher
		if w := m.structuralWindow(num.pattern); w.Hi != 45 {
			b.Fatalf("numerator window %+v", w)
		}
		if w := m.structuralWindow(den.pattern); w.Hi != 47 {
			b.Fatalf("denominator window %+v", w)
		}
	})
}

// TestConcurrentDegreeWindow formulates on one fresh system from several
// goroutines at once: the window is computed once per pattern, in the
// shared matcher scratch, and every evaluator sees the same one.
func TestConcurrentDegreeWindow(t *testing.T) {
	u := circuits.UA741()
	sys, err := Build(u)
	if err != nil {
		t.Fatal(err)
	}
	inp, inn, out := circuits.UA741Inputs()
	const workers = 8
	wins := make([][2]interp.DegreeWindow, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			tf, err := sys.DifferentialVoltageGain(u, inp, inn, out)
			if err != nil {
				t.Error(err)
				return
			}
			wins[w] = [2]interp.DegreeWindow{*tf.Num.Degrees, *tf.Den.Degrees}
		}(w)
	}
	wg.Wait()
	for w, got := range wins {
		if got[0] != (interp.DegreeWindow{Lo: 0, Hi: 45}) || got[1] != (interp.DegreeWindow{Lo: 0, Hi: 47}) {
			t.Errorf("worker %d: windows %+v, want [0,45] and [0,47]", w, got)
		}
	}
}
