package sparse

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/xmath"
)

// referenceMarkowitz is the map-based Markowitz factorization the flat
// rows must reproduce bit for bit: it eliminates w, consuming its
// contents, with the pivot rule of Workspace.markowitz. Map iteration
// order is random, but every choice it makes is order-independent — a
// total order on (cost, magnitude, row, column) for the pivot, with a NaN
// magnitude below every number, one update per entry, sorted U rows,
// multipliers by ascending row.
func referenceMarkowitz(w *Matrix, threshold float64) (*LU, error) {
	n := w.n
	f := &LU{
		n:       n,
		pivRow:  make([]int, 0, n),
		pivCol:  make([]int, 0, n),
		pivVal:  make([]complex128, 0, n),
		urows:   make([][]urowEntry, 0, n),
		mults:   make([][]multEntry, 0, n),
		detSign: 1,
	}
	rowActive := make([]bool, n)
	colActive := make([]bool, n)
	colCount := make([]int, n) // nonzeros per active column over active rows
	for i := range rowActive {
		rowActive[i] = true
		colActive[i] = true
	}
	for _, r := range w.rows {
		for j := range r {
			colCount[j]++
		}
	}
	colMax := make([]float64, n)
	for step := 0; step < n; step++ {
		// Column max magnitudes over active rows, for the threshold test.
		clear(colMax)
		for i, r := range w.rows {
			if !rowActive[i] {
				continue
			}
			for j, v := range r {
				if !colActive[j] {
					continue
				}
				if a := cmplx.Abs(v); a > colMax[j] {
					colMax[j] = a
				}
			}
		}
		// Pivot search: minimal (r−1)(c−1), ties broken by magnitude.
		bestCost := int(^uint(0) >> 1)
		bestAbs := 0.0
		bi, bj := -1, -1
		for i, r := range w.rows {
			if !rowActive[i] {
				continue
			}
			rc := 0
			for j := range r {
				if colActive[j] {
					rc++
				}
			}
			for j, v := range r {
				if !colActive[j] {
					continue
				}
				a := cmplx.Abs(v)
				if a < threshold*colMax[j] {
					continue
				}
				cost := (rc - 1) * (colCount[j] - 1)
				// Larger magnitude first, a NaN magnitude below every
				// number; equal (or both NaN) falls to (row, column).
				larger := a > bestAbs || (bestAbs != bestAbs && a == a)
				same := a == bestAbs || (a != a && bestAbs != bestAbs)
				better := cost < bestCost ||
					(cost == bestCost && (larger ||
						(same && (bi < 0 || i < bi || (i == bi && j < bj)))))
				if better {
					bestCost, bestAbs, bi, bj = cost, a, i, j
				}
			}
		}
		if bi < 0 {
			return nil, ErrSingular
		}
		piv := w.rows[bi][bj]
		urow := sortedURow(w.rows[bi], colActive)
		f.pivRow = append(f.pivRow, bi)
		f.pivCol = append(f.pivCol, bj)
		f.pivVal = append(f.pivVal, piv)
		f.urows = append(f.urows, urow)
		rowActive[bi] = false
		colActive[bj] = false
		for j := range w.rows[bi] {
			if colActive[j] || j == bj {
				colCount[j]--
			}
		}
		// Rank-1 update of the active submatrix.
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
				old, had := r[j]
				nv := old - mult*v
				if nv == 0 {
					if had {
						delete(r, j)
						colCount[j]--
					}
					continue
				}
				if !had {
					colCount[j]++
				}
				r[j] = nv
			}
		}
		f.mults = append(f.mults, stepMults)
	}
	if parity(f.pivRow, make([]bool, n))*parity(f.pivCol, make([]bool, n)) < 0 {
		f.detSign = -1
	}
	return f, nil
}

// sortedURow snapshots the active entries of a pivot row in column order.
// Column keys are map keys, hence unique, so the sorted order — and with
// it every downstream rounded intermediate — does not depend on the sort
// algorithm's stability.
func sortedURow(row map[int]complex128, colActive []bool) []urowEntry {
	u := make([]urowEntry, 0, len(row))
	for j, v := range row {
		if colActive[j] {
			u = append(u, urowEntry{col: j, val: v})
		}
	}
	slices.SortFunc(u, func(a, b urowEntry) int { return a.col - b.col })
	return u
}

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
	if parity(f.pivRow, make([]bool, n))*parity(f.pivCol, make([]bool, n)) < 0 {
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

// assembly is an add sequence for Workspace.Assemble: positions and
// their values, in order.
type assembly struct {
	pos  [][2]int32
	vals []complex128
}

func (a *assembly) add(i, j int, v complex128) {
	a.pos = append(a.pos, [2]int32{int32(i), int32(j)})
	a.vals = append(a.vals, v)
}

// of returns a as an n×n Assembly: its values in the unscaled block.
func (a *assembly) of(n int) *Assembly { return &Assembly{N: n, Pos: a.pos, U: a.vals} }

// factorEntries assembles es into ws under sp and factors it, reporting
// a plan miss as ErrPlanMiss.
func factorEntries(ws *Workspace, sp *SharedPlan, n int, es []entry) (*LU, error) {
	var a assembly
	for _, e := range es {
		a.add(e.i, e.j, e.v)
	}
	ws.Assemble(sp, a.of(n), 0, 1, 1)
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
	if mode&128 != 0 { // an infinite frequency part: complex(±Inf, NaN) at s = ±1, complex(NaN, ±Inf) at s = ±j
		st = append(st, fuzzStamp{rng.Intn(n), rng.Intn(n), 0, math.Inf(1)})
	}
	return st
}

// scaleAt multiplies every stamp at one position by a factor, to move
// that entry's magnitude at a point.
type scaleAt struct {
	pos    [2]int
	factor float64
}

// assembleStamps feeds the stamps at point s to add, scaling the stamps
// at sc.pos by sc.factor when sc is non-nil.
func assembleStamps(st []fuzzStamp, s complex128, sc *scaleAt, add func(i, j int, v complex128)) {
	scale := func(e fuzzStamp) float64 {
		if sc != nil && e.i == sc.pos[0] && e.j == sc.pos[1] {
			return sc.factor
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

// guardBand lists pivot-to-row magnitude ratios around the stability
// guard: below and at guardRatio, through the band where the max-norm
// prefilter defers to the exact test, to where it clears the pivot.
var guardBand = []float64{0.9e-10, 1e-10, 1.0000000001e-10, 1.06e-10, 1.2e-10, 1.41e-10, 1.5e-10, 1.6e-10}

// bandScales returns, for each guardBand ratio and one random ratio in
// the band, the scale of the stamps at position first that brings that
// entry's value at s to the ratio times the largest other entry of its
// row; none when the ratio is undefined.
func bandScales(rng *rand.Rand, st []fuzzStamp, n int, s complex128, first [2]int) []scaleAt {
	m := New(n)
	assembleStamps(st, s, nil, m.Add)
	piv, rowMax := cmplx.Abs(m.At(first[0], first[1])), 0.0
	for j, v := range m.rows[first[0]] {
		if j != first[1] {
			rowMax = max(rowMax, cmplx.Abs(v))
		}
	}
	if piv == 0 || rowMax == 0 || math.IsInf(piv, 0) || math.IsNaN(piv) || math.IsInf(rowMax, 0) {
		return nil
	}
	var out []scaleAt
	for _, r := range append(guardBand, 0.9e-10+0.7e-10*rng.Float64()) {
		out = append(out, scaleAt{first, r * rowMax / piv})
	}
	return out
}

// FuzzCompiledReplay feeds the compiled replay and the map-based
// reference the same matrices — the priming point, real points s = ±1,
// unit-circle points, a point that shrinks the first planned pivot to
// force a guard trip, and points that put it in the stability guard's
// band — and requires the same miss decision and bit-identical
// factorizations. Its lane mode runs the same matrices through Dets,
// several points per pass, and requires each point's determinant to be
// the recording replay's bit for bit.
func FuzzCompiledReplay(f *testing.F) {
	f.Add(uint8(5), uint8(4), int64(1), uint8(0))
	f.Add(uint8(9), uint8(12), int64(2), uint8(1))
	f.Add(uint8(7), uint8(9), int64(3), uint8(3))
	f.Add(uint8(12), uint8(20), int64(4), uint8(15))
	f.Add(uint8(8), uint8(14), int64(5), uint8(31))
	f.Add(uint8(6), uint8(10), int64(6), uint8(36))
	f.Add(uint8(3), uint8(90), int64(7), uint8(67))
	// An infinite frequency part: complex(±Inf, NaN) entries at s = ±1 and
	// complex(NaN, ±Inf) at s = ±j, which the guard must count as
	// infinite, as hypot does.
	f.Add(uint8(6), uint8(18), int64(5), uint8(128))
	f.Add(uint8(6), uint8(18), int64(4), uint8(130))
	f.Add(uint8(136), uint8(87), int64(149), uint8(154))
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
		var a assembly
		assembleStamps(st, prime, nil, a.add)
		ws.Assemble(&sp, a.of(n), 0, 1, 1)
		if _, err := ws.Factor(); err != nil {
			return // singular at the priming point: nothing is planned
		}
		c := sp.c.Load()
		if c == nil {
			t.Fatal("successful priming factorization left the plan unprimed")
		}
		first := [2]int{c.pivRow[0], c.pivCol[0]}
		theta := 2 * math.Pi * rng.Float64()
		type point struct {
			s  complex128
			sc *scaleAt
		}
		points := []point{
			{prime, nil}, {1, nil}, {-1, nil}, {complex(0, -1), nil},
			{cmplx.Rect(1, theta), nil}, {0, nil}, {prime, &scaleAt{first, 1e-14}},
		}
		for _, s := range []complex128{prime, 1} {
			for _, sc := range bandScales(rng, st, n, s, first) {
				points = append(points, point{s, &sc})
			}
		}
		for _, p := range points {
			ref := New(n)
			assembleStamps(st, p.s, p.sc, ref.Add)
			want, ok := referenceReplay(ref, c.pivRow, c.pivCol)
			a = assembly{}
			assembleStamps(st, p.s, p.sc, a.add)
			ws.Assemble(&sp, a.of(n), 0, 1, 1)
			got, err := ws.Factor()
			if ok != (err == nil) {
				t.Fatalf("s=%v scale=%+v: reference ok=%v, compiled err=%v", p.s, p.sc, ok, err)
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

		// Lane mode: the same matrices as typed stamps, one assembly per
		// scaling with the points as lanes, so that guard trips and band
		// pivots share passes with ordinary points.
		bases := []complex128{prime, 1, -1, complex(0, -1), cmplx.Rect(1, theta), 0}
		scales := []*scaleAt{nil}
		for _, p := range points {
			if p.sc != nil {
				scales = append(scales, p.sc)
			}
		}
		for _, sc := range scales {
			requireSameDets(t, &sp, typedStamps(st, n, sc), bases)
		}
	})
}

// typedStamps is the fuzz circuit's assembly as typed stamps: every
// stamp's position once for its conductance part and once more for its
// frequency part, the stamps at sc.pos scaled by sc.factor when sc is
// non-nil. At the point s, with unit scale factors, it adds what
// assembleStamps adds.
func typedStamps(st []fuzzStamp, n int, sc *scaleAt) *Assembly {
	a := &Assembly{N: n}
	for _, e := range st {
		a.Pos = append(a.Pos, [2]int32{int32(e.i), int32(e.j)})
	}
	a.Pos = append(a.Pos, a.Pos...)
	for _, e := range st {
		f := 1.0
		if sc != nil && e.i == sc.pos[0] && e.j == sc.pos[1] {
			f = sc.factor
		}
		a.G = append(a.G, e.g*f)
		a.C = append(a.C, e.c*f)
	}
	return a
}

// detOrPanic returns det() and whether it panicked.
func detOrPanic(det func() xmath.XComplex) (d xmath.XComplex, panicked bool) {
	defer func() { panicked = recover() != nil }()
	return det(), false
}

// sameX reports bitwise equality of two extended complex numbers.
func sameX(a, b xmath.XComplex) bool { return sameBits(a.Mant(), b.Mant()) && a.Exp() == b.Exp() }

// requireSameDets runs Dets over a at the points pts (every tail of a
// pass, through a reused workspace) and requires each point's
// determinant to be the one the recording replay's LU.Det gives it alone
// — bit for bit — with a panic where that product panics.
func requireSameDets(t *testing.T, sp *SharedPlan, a *Assembly, pts []complex128) {
	t.Helper()
	var ref, lw Workspace
	want := make([]xmath.XComplex, len(pts))
	panics := false
	for i, s := range pts {
		var p bool
		want[i], p = detOrPanic(func() xmath.XComplex {
			f, err := ref.FactorAssembly(sp, a, s, 1, 1)
			if err != nil {
				return xmath.XComplex{}
			}
			return f.Det()
		})
		panics = panics || p
	}
	for n := 1; n <= len(pts); n++ {
		got := make([]xmath.XComplex, n)
		_, p := detOrPanic(func() xmath.XComplex {
			lw.Dets(sp, a, pts[:n], 1, 1, got)
			return xmath.XComplex{}
		})
		if p {
			if !panics {
				t.Fatalf("Dets over %d points panicked; no point's LU.Det does", n)
			}
			continue
		}
		for i := range got {
			if !sameX(got[i], want[i]) {
				t.Fatalf("%d points: Dets[%d] at s=%v = %v, recording replay %v", n, i, pts[i], got[i], want[i])
			}
		}
	}
}

// TestDetsLaneMissFallsBackAlone: in a pass whose second lane trips the
// stability guard, only that point is factored again, and every lane
// gets the determinant the recording replay gives its point alone.
func TestDetsLaneMissFallsBackAlone(t *testing.T) {
	// Y = [[1 + s·c, 1], [1, 0.5]] pivots on (0, 0) first when primed at
	// s = j; at s = −1 that pivot is ~1e-14, far inside the guard.
	a := &Assembly{N: 2, Pos: [][2]int32{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0, 0}},
		G: []float64{1, 1, 1, 0.5}, C: []float64{1 - 1e-14}}
	pts := []complex128{complex(0.6, 0.8), -1, 1, complex(0, -1)}
	var sp SharedPlan
	var ws Workspace
	prime := make([]xmath.XComplex, 1)
	ws.Dets(&sp, a, []complex128{complex(0, 1)}, 1, 1, prime)
	if c := sp.c.Load(); c == nil || c.pivRow[0] != 0 || c.pivCol[0] != 0 {
		t.Fatal("plan does not pivot on (0, 0) first")
	}
	lanes := make([]xmath.XComplex, len(pts))
	if missed := ws.detLanes(sp.c.Load(), a, pts, 1, 1, lanes); missed != 1<<1 {
		t.Fatalf("missed lanes %04b, want 0010", missed)
	}
	got := make([]xmath.XComplex, len(pts))
	ws.Dets(&sp, a, pts, 1, 1, got)
	var ref Workspace
	for i, s := range pts {
		f, err := ref.FactorAssembly(&sp, a, s, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !sameX(got[i], f.Det()) {
			t.Fatalf("lane %d (s=%v): %v, alone %v", i, s, got[i], f.Det())
		}
	}
	ref.Assemble(&sp, a, -1, 1, 1)
	if _, err := ref.Factor(); err != ErrPlanMiss {
		t.Fatalf("the replay at s=−1: err = %v, want ErrPlanMiss", err)
	}
}

// markowitzAdds draws the add sequence of one FuzzMarkowitz input: the
// fuzz circuit's stamps (modes as in fuzzStamps) at one of the points
// j, 1, −1, a unit-circle point and 0, optionally rounded to integers
// (mode 64: Markowitz-cost and magnitude ties) and followed by repeated
// adds to one position (mode 128): an exact cancellation, a signed zero
// that must be skipped, and re-adds that start again from 0 + v.
func markowitzAdds(rng *rand.Rand, n int, density, mode, point uint8) []entry {
	st := fuzzStamps(rng, n, density, mode&63)
	if mode&64 != 0 {
		for k := range st {
			st[k].g, st[k].c = math.Round(st[k].g), math.Round(st[k].c)
		}
	}
	s := []complex128{complex(0, 1), 1, -1, cmplx.Rect(1, 2*math.Pi*rng.Float64()), 0}[point%5]
	var es []entry
	assembleStamps(st, s, nil, func(i, j int, v complex128) { es = append(es, entry{i, j, v}) })
	if mode&128 != 0 {
		p, q := rng.Intn(n), rng.Intn(n)
		m := New(n)
		for _, e := range es {
			m.Add(e.i, e.j, e.v)
		}
		negZero := math.Copysign(0, -1)
		x := complex(float64(1+rng.Intn(3)), negZero)
		es = append(es, entry{p, q, -m.At(p, q)}, entry{p, q, complex(negZero, negZero)},
			entry{p, q, x}, entry{p, q, x}, entry{p, q, -2 * x}, entry{p, q, x})
	}
	return es
}

// FuzzMarkowitz feeds one add sequence to the map-based reference
// (through Matrix.Add) and to both production entry points —
// Matrix.Factor and a reused Workspace's Assemble(nil)/Factor —
// and requires ErrSingular on the same inputs and otherwise the same
// pivot order and bit-identical pivots, U rows, multipliers, sign,
// determinant and solves.
func FuzzMarkowitz(f *testing.F) {
	f.Add(uint8(5), uint8(4), int64(1), uint8(0), uint8(0))
	f.Add(uint8(9), uint8(12), int64(2), uint8(65), uint8(1))
	f.Add(uint8(7), uint8(9), int64(3), uint8(10), uint8(2))
	f.Add(uint8(12), uint8(20), int64(4), uint8(132), uint8(3))
	f.Add(uint8(8), uint8(14), int64(5), uint8(48), uint8(0))
	f.Add(uint8(3), uint8(2), int64(6), uint8(193), uint8(4))
	f.Fuzz(func(t *testing.T, size, density uint8, seed int64, mode, point uint8) {
		n := 1 + int(size)%16
		rng := rand.New(rand.NewSource(seed))
		es := markowitzAdds(rng, n, density, mode, point)
		build := func() *Matrix {
			m := New(n)
			for _, e := range es {
				m.Add(e.i, e.j, e.v)
			}
			return m
		}
		want, wantErr := referenceMarkowitz(build(), DefaultThreshold)
		check := func(label string, got *LU, err error) {
			t.Helper()
			if err != wantErr {
				t.Fatalf("%s: err = %v, reference %v", label, err, wantErr)
			}
			if err == nil {
				requireSameLU(t, got, want)
			}
		}
		got, err := build().Factor(DefaultThreshold)
		check("Matrix.Factor", got, err)

		// The workspace first factors an unrelated larger matrix, so the
		// checked factorizations run on reused, grown buffers.
		var ws Workspace
		var other []entry
		assembleStamps(fuzzStamps(rng, n+3, density, 0), 1, nil, func(i, j int, v complex128) { other = append(other, entry{i, j, v}) })
		factorEntries(&ws, nil, n+3, other)
		for pass := 0; pass < 2; pass++ {
			got, err := factorEntries(&ws, nil, n, es)
			check("Workspace", got, err)
		}
	})
}

// TestReplayGuardBranches runs the stability guard's two branches — the
// max-norm prefilter clearing a pivot outright, and the deferral to the
// exact hypot test — on a pivot row [p r] of a 2×2 matrix whose plan
// pivots on (0, 0) first, and requires the replay's miss decision to be
// the map-based reference's on each.
func TestReplayGuardBranches(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	at := func(p, r complex128) assembly {
		var a assembly
		a.add(0, 0, p)
		a.add(0, 1, r)
		a.add(1, 0, 1)
		a.add(1, 1, 4)
		return a
	}
	var sp SharedPlan
	var ws Workspace
	a := at(4, 1)
	ws.Assemble(&sp, a.of(2), 0, 1, 1)
	if _, err := ws.Factor(); err != nil {
		t.Fatal(err)
	}
	c := sp.c.Load()
	if c.pivRow[0] != 0 || c.pivCol[0] != 0 {
		t.Fatalf("plan pivots first on (%d, %d), want (0, 0)", c.pivRow[0], c.pivCol[0])
	}
	// compInf is the largest non-NaN component magnitude of vs.
	compInf := func(vs ...complex128) float64 {
		m := 0.0
		for _, v := range vs {
			for _, x := range []float64{math.Abs(real(v)), math.Abs(imag(v))} {
				if x > m {
					m = x
				}
			}
		}
		return m
	}
	cases := []struct {
		p, r         complex128
		clears, miss bool
	}{
		{p: 1, r: 1, clears: true},
		{p: 2e-10, r: 1, clears: true},
		{p: 1.2e-10, r: 1},               // in the band: the exact test passes it
		{p: 0.9e-10, r: 1, miss: true},   // in the band: the exact test fails it
		{p: complex(1e-10, 1e-10), r: 1}, // |p| = √2·|p|∞ passes
		{p: complex(0.7e-10, 0.7e-10), r: 1, miss: true},
		{p: 1, r: complex(inf, nan), miss: true}, // hypot = Inf: the row max is infinite
		{p: 1, r: complex(nan, inf), miss: true},
		{p: 1, r: complex(nan, 1), clears: true}, // hypot = NaN: the exact test skips the entry
		{p: complex(inf, nan), r: 1},             // |p| = Inf passes
		{p: 1e300, r: 8e307, clears: true},
		{p: 1e300, r: complex(1.3e308, 1.3e308), miss: true}, // hypot overflows: deferred, then a miss
	}
	for _, tc := range cases {
		if got := guardClears(tc.p, compInf(tc.p, tc.r)); got != tc.clears {
			t.Errorf("p=%v r=%v: prefilter clears=%v, want %v", tc.p, tc.r, got, tc.clears)
		}
		a := at(tc.p, tc.r)
		ws.Assemble(&sp, a.of(2), 0, 1, 1)
		_, err := ws.Factor()
		ref := New(2)
		for k, p := range a.pos {
			ref.Add(int(p[0]), int(p[1]), a.vals[k])
		}
		_, ok := referenceReplay(ref, c.pivRow, c.pivCol)
		if miss := err == ErrPlanMiss; miss != !ok || miss != tc.miss {
			t.Errorf("p=%v r=%v: compiled miss=%v (err %v), reference miss=%v, want %v", tc.p, tc.r, miss, err, !ok, tc.miss)
		}
	}
}

// TestDivisorMatchesDivision: a hoisted divisor's quo gives the bits of
// Go's complex division n / m for ordinary values, for both branches of
// Smith's algorithm, and for zero, infinite and NaN parts on either
// side. Where the compiler fuses a product into a sum (FMA targets), the
// runtime's division fuses too, and so must quo.
func TestDivisorMatchesDivision(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, 1, -2.5, 1e-300, 3e300, inf, -inf, nan}
	var vals []complex128
	for _, re := range special {
		for _, im := range special {
			vals = append(vals, complex(re, im))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		vals = append(vals, complex(rng.NormFloat64(), rng.NormFloat64()))
	}
	same := func(a, b complex128) bool {
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
			math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	for k, m := range vals {
		d := newDivisor(m)
		// Every special numerator against every divisor; each random
		// divisor against a few random numerators.
		ns := vals[:len(special)*len(special)]
		if k >= len(ns) {
			ns = vals[len(ns)+rng.Intn(len(vals)-len(ns)-8):][:8]
		}
		for _, n := range ns {
			if got, want := d.quo(n), n/m; !same(got, want) {
				t.Fatalf("(%v) / (%v): quo %v, division %v", n, m, got, want)
			}
		}
	}
}
