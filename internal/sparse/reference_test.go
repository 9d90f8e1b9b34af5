package sparse

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// referenceReplay is the map-based planned replay the compiled replay
// must reproduce bit for bit: it eliminates w in the given pivot order,
// consuming w's contents, and reports false when a pivot is absent or
// fails the stability guard.
func referenceReplay(w *Matrix, pivRow, pivCol []int) (*LU, bool) {
	n := w.n
	f := &LU{
		n:       n,
		pivRow:  pivRow,
		pivCol:  pivCol,
		pivVal:  make([]complex128, 0, n),
		urows:   make([][]urowEntry, 0, n),
		mults:   make([][]multEntry, 0, n),
		detSign: 1,
	}
	colActive := make([]bool, n)
	rowActive := make([]bool, n)
	for i := range colActive {
		colActive[i] = true
		rowActive[i] = true
	}
	for step := 0; step < n; step++ {
		bi, bj := pivRow[step], pivCol[step]
		piv, ok := w.rows[bi][bj]
		if !ok {
			return nil, false
		}
		rowMax := 0.0
		for j, v := range w.rows[bi] {
			if colActive[j] {
				if a := cmplx.Abs(v); a > rowMax {
					rowMax = a
				}
			}
		}
		if cmplx.Abs(piv) < guardRatio*rowMax {
			return nil, false
		}
		f.pivVal = append(f.pivVal, piv)
		f.urows = append(f.urows, sortedURow(w.rows[bi], colActive))
		rowActive[bi] = false
		colActive[bj] = false
		var stepMults []multEntry
		for i, r := range w.rows {
			if !rowActive[i] {
				continue
			}
			fv, ok := r[bj]
			if !ok {
				continue
			}
			mult := fv / piv
			stepMults = append(stepMults, multEntry{row: i, mult: mult})
			delete(r, bj)
			for j, v := range w.rows[bi] {
				if !colActive[j] {
					continue
				}
				nv := r[j] - mult*v
				if nv == 0 {
					delete(r, j)
					continue
				}
				r[j] = nv
			}
		}
		f.mults = append(f.mults, stepMults)
	}
	if parity(f.pivRow)*parity(f.pivCol) < 0 {
		f.detSign = -1
	}
	return f, true
}

// entry is one assembly stamp: a structural position and its value.
type entry struct {
	i, j int
	v    complex128
}

// entriesOf lists m's nonzeros in row-major order.
func entriesOf(m *Matrix) []entry {
	var es []entry
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if v, ok := m.rows[i][j]; ok {
				es = append(es, entry{i, j, v})
			}
		}
	}
	return es
}

// factorEntries assembles es into ws under sp and factors it.
func factorEntries(ws *Workspace, sp *SharedPlan, n int, es []entry) (*LU, error) {
	ws.Begin(sp, n)
	for _, e := range es {
		ws.Add(e.i, e.j, e.v)
	}
	return ws.Factor()
}

// scaled returns es with every value multiplied by a random complex
// factor near 1: the same structural pattern at another point.
func scaled(rng *rand.Rand, es []entry) []entry {
	out := make([]entry, len(es))
	for k, e := range es {
		out[k] = entry{e.i, e.j, e.v * complex(1+0.3*rng.NormFloat64(), 0.2*rng.NormFloat64())}
	}
	return out
}

// sameBits reports bitwise equality, sign of zero included.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// requireSameLU fails unless got and want hold bit-identical pivots, U
// rows, multipliers, and — when the pivots are finite — determinants and
// solves of two right-hand sides.
func requireSameLU(t *testing.T, got, want *LU) {
	t.Helper()
	if got.n != want.n || got.detSign != want.detSign || len(got.pivVal) != len(want.pivVal) {
		t.Fatalf("shape: n %d/%d, sign %d/%d, pivots %d/%d", got.n, want.n, got.detSign, want.detSign, len(got.pivVal), len(want.pivVal))
	}
	for k := range want.pivVal {
		if got.pivRow[k] != want.pivRow[k] || got.pivCol[k] != want.pivCol[k] || !sameBits(got.pivVal[k], want.pivVal[k]) {
			t.Fatalf("step %d pivot: (%d,%d)=%v, want (%d,%d)=%v", k, got.pivRow[k], got.pivCol[k], got.pivVal[k], want.pivRow[k], want.pivCol[k], want.pivVal[k])
		}
		gu, wu := got.urows[k], want.urows[k]
		if len(gu) != len(wu) {
			t.Fatalf("step %d: U row has %d entries, want %d", k, len(gu), len(wu))
		}
		for p := range wu {
			if gu[p].col != wu[p].col || !sameBits(gu[p].val, wu[p].val) {
				t.Fatalf("step %d U[%d]: (%d, %v), want (%d, %v)", k, p, gu[p].col, gu[p].val, wu[p].col, wu[p].val)
			}
		}
		gm, wm := got.mults[k], want.mults[k]
		if len(gm) != len(wm) {
			t.Fatalf("step %d: %d multipliers, want %d", k, len(gm), len(wm))
		}
		for p := range wm {
			if gm[p].row != wm[p].row || !sameBits(gm[p].mult, wm[p].mult) {
				t.Fatalf("step %d mult[%d]: (%d, %v), want (%d, %v)", k, p, gm[p].row, gm[p].mult, wm[p].row, wm[p].mult)
			}
		}
	}
	for _, p := range want.pivVal {
		if cmplx.IsInf(p) || cmplx.IsNaN(p) {
			return // Det and the solves have no finite value to compare
		}
	}
	gd, wd := got.Det(), want.Det()
	if math.Float64bits(gd.Real().Mant()) != math.Float64bits(wd.Real().Mant()) || gd.Real().Exp() != wd.Real().Exp() ||
		math.Float64bits(gd.Imag().Mant()) != math.Float64bits(wd.Imag().Mant()) || gd.Imag().Exp() != wd.Imag().Exp() {
		t.Fatalf("Det %v, want %v", gd, wd)
	}
	n := want.n
	var gws, wws Workspace
	for _, b := range [][]complex128{unitVector(n, 0), onesVector(n)} {
		gx, wx := make([]complex128, n), make([]complex128, n)
		if err := got.SolveInto(gx, b, &gws); err != nil {
			t.Fatal(err)
		}
		if err := want.SolveInto(wx, b, &wws); err != nil {
			t.Fatal(err)
		}
		for i := range wx {
			if !sameBits(gx[i], wx[i]) {
				t.Fatalf("x[%d] = %v, want %v", i, gx[i], wx[i])
			}
		}
	}
}

func unitVector(n, i int) []complex128 {
	b := make([]complex128, n)
	if n > 0 {
		b[i] = 1
	}
	return b
}

func onesVector(n int) []complex128 {
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(1, -0.5)
	}
	return b
}

// fuzzStamp is one assembly stamp of the fuzz circuit model: its value
// at point s is g + s·c, added as two Adds like a nodal assembly (the
// conductance part, then the frequency part).
type fuzzStamp struct {
	i, j int
	g, c float64
}

// exactValues are element values whose products and quotients stay
// exact often enough to produce exact cancellations in the elimination.
var exactValues = []float64{0.5, 1, 2, 4, -0.5, -1, -2, -4}

// fuzzStamps draws a circuit-like stamp list: two-terminal admittances
// (symmetric, with off-diagonal cancellation partners), optional
// asymmetric VCCS entries, stamp pairs that cancel exactly in assembly,
// diagonals whose g and c cancel at s = ±1, extreme magnitudes and an
// infinite entry.
func fuzzStamps(rng *rand.Rand, n int, density, mode uint8) []fuzzStamp {
	val := func() float64 {
		v := 0.1 + rng.Float64()
		if mode&1 != 0 && rng.Intn(3) > 0 {
			v = exactValues[rng.Intn(len(exactValues))]
		}
		if mode&16 != 0 && rng.Intn(4) == 0 { // extreme magnitudes: overflow, underflow, Inf·0
			v *= math.Pow(10, float64(rng.Intn(601)-300))
		}
		return v
	}
	var st []fuzzStamp
	admittance := func(p, q int, g, c float64) {
		st = append(st, fuzzStamp{p, p, g, c})
		if q >= 0 {
			st = append(st, fuzzStamp{q, q, g, c}, fuzzStamp{p, q, -g, -c}, fuzzStamp{q, p, -g, -c})
		}
	}
	for i := 0; i < n; i++ {
		admittance(i, -1, val(), val()) // to ground: keeps the matrix regular
	}
	links := 1 + int(density)%(2*n+1)
	for k := 0; k < links; k++ {
		p, q := rng.Intn(n), rng.Intn(n)
		if p == q {
			continue
		}
		g, c := val(), 0.0
		if rng.Intn(2) == 0 {
			c = val()
		}
		admittance(p, q, g, c)
	}
	if mode&2 != 0 { // VCCS: asymmetric, no capacitive part
		for k := 0; k < 1+n/2; k++ {
			p, cp := rng.Intn(n), rng.Intn(n)
			st = append(st, fuzzStamp{p, cp, 3 * val(), 0})
		}
	}
	if mode&4 != 0 { // a stamp and its negation: exact cancellation in assembly
		p, q := rng.Intn(n), rng.Intn(n)
		g, c := val(), val()
		st = append(st, fuzzStamp{p, q, g, c}, fuzzStamp{p, q, -g, -c})
	}
	if mode&8 != 0 { // g + s·c cancels exactly at s = −1 (or +1)
		p := rng.Intn(n)
		g := val()
		st = append(st, fuzzStamp{p, p, g, g * float64(1-2*rng.Intn(2))})
	}
	if mode&32 != 0 { // a non-finite entry: Inf and NaN multipliers
		st = append(st, fuzzStamp{rng.Intn(n), rng.Intn(n), math.Inf(1), 0})
	}
	return st
}

// assembleStamps feeds the stamps at point s to add, scaling every
// stamp at position tiny (when non-nil) by 1e-14.
func assembleStamps(st []fuzzStamp, s complex128, tiny *[2]int, add func(i, j int, v complex128)) {
	scale := func(e fuzzStamp) float64 {
		if tiny != nil && e.i == tiny[0] && e.j == tiny[1] {
			return 1e-14
		}
		return 1
	}
	for _, e := range st {
		add(e.i, e.j, complex(e.g*scale(e), 0))
	}
	for _, e := range st {
		add(e.i, e.j, s*complex(e.c*scale(e), 0))
	}
}

// FuzzCompiledReplay feeds the compiled replay and the map-based
// reference the same matrices — the priming point, real points s = ±1,
// unit-circle points, and a point that shrinks the first planned pivot
// to force a guard trip — and requires the same miss decision and
// bit-identical factorizations.
func FuzzCompiledReplay(f *testing.F) {
	f.Add(uint8(5), uint8(4), int64(1), uint8(0))
	f.Add(uint8(9), uint8(12), int64(2), uint8(1))
	f.Add(uint8(7), uint8(9), int64(3), uint8(3))
	f.Add(uint8(12), uint8(20), int64(4), uint8(15))
	f.Add(uint8(8), uint8(14), int64(5), uint8(31))
	f.Add(uint8(6), uint8(10), int64(6), uint8(36))
	f.Add(uint8(3), uint8(90), int64(7), uint8(67))
	f.Fuzz(func(t *testing.T, size, density uint8, seed int64, mode uint8) {
		n := 1 + int(size)%14
		if mode&64 != 0 { // pattern rows spanning two bitset words
			n += 64
		}
		rng := rand.New(rand.NewSource(seed))
		st := fuzzStamps(rng, n, density, mode)
		var sp SharedPlan
		var ws Workspace
		prime := complex(0, 1)
		ws.Begin(&sp, n)
		assembleStamps(st, prime, nil, ws.Add)
		if _, err := ws.Factor(); err != nil {
			return // singular at the priming point: nothing is planned
		}
		c := sp.c.Load()
		if c == nil {
			t.Fatal("successful priming factorization left the plan unprimed")
		}
		first := [2]int{c.pivRow[0], c.pivCol[0]}
		theta := 2 * math.Pi * rng.Float64()
		points := []struct {
			s    complex128
			tiny *[2]int
		}{
			{prime, nil}, {1, nil}, {-1, nil}, {complex(0, -1), nil},
			{cmplx.Rect(1, theta), nil}, {0, nil}, {prime, &first},
		}
		for _, p := range points {
			ref := New(n)
			assembleStamps(st, p.s, p.tiny, ref.Add)
			want, ok := referenceReplay(ref, c.pivRow, c.pivCol)
			ws.Begin(&sp, n)
			assembleStamps(st, p.s, p.tiny, ws.Add)
			got, err := ws.Factor()
			if ok != (err == nil) {
				t.Fatalf("s=%v tiny=%v: reference ok=%v, compiled err=%v", p.s, p.tiny, ok, err)
			}
			if err != nil && err != ErrPlanMiss {
				t.Fatalf("s=%v: compiled replay error %v, want ErrPlanMiss", p.s, err)
			}
			if ok {
				requireSameLU(t, got, want)
			}
			if sp.c.Load() != c {
				t.Fatal("replay replaced the shared plan")
			}
		}
	})
}
