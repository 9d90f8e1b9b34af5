package sparse

import (
	"math/bits"
	"math/cmplx"
	"sync"
	"sync/atomic"
)

// guardRatio is the stability test of a planned replay: a planned pivot
// smaller than guardRatio × the largest entry of its remaining row is a
// plan miss, answered by a full Markowitz factorization of that matrix.
const guardRatio = 1e-10

// SharedPlan is a concurrency-safe pivot-order cache for repeated
// factorizations of matrices sharing one sparsity pattern — the batched
// point-evaluation layer factors the same circuit pattern at every
// interpolation point of every frame of a generation run.
//
// It is primed exactly once, by the first successful full factorization
// through a Workspace, which records the pivot order and compiles it over
// the structural pattern that factorization assembled ("symbolic once,
// numeric many"). It is never refreshed afterwards: later factorizations
// replay the compiled order read-only and fall back to a private full
// Markowitz factorization when a planned pivot is zero or numerically
// unsafe. Because the plan is immutable after priming, the result for a
// given matrix is a pure function of the matrix and the plan —
// independent of evaluation order and goroutine scheduling — which is
// what makes serial and parallel batched runs bit-identical.
type SharedPlan struct {
	mu sync.Mutex // serializes priming
	c  atomic.Pointer[compiled]
}

// Primed reports whether a pivot order has been recorded. Batch runners
// use it to keep evaluating serially until the plan exists, so that the
// point that primes the plan is the same in serial and parallel runs.
func (sp *SharedPlan) Primed() bool { return sp.c.Load() != nil }

// prime compiles f's pivot order over the structural positions pos
// unless a plan is already recorded.
func (sp *SharedPlan) prime(f *LU, pos [][2]int32) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.c.Load() == nil {
		sp.c.Store(compile(f, pos))
	}
}

// compiled is a pivot order compiled over one structural pattern: the
// positions the priming assembly added, plus the fill-in the planned
// elimination creates. Every structural position owns one value slot, so
// a factorization at a new point is arithmetic on one value array — no
// maps, no searches, no sorting. It performs exactly the floating-point
// operations of a map-based replay in the same order, because a slot
// reading exactly zero plays the part of an absent entry: it is skipped
// as a pivot, a pivot-row entry, a U-row entry and a multiplier source.
// Slots start at +0, and an IEEE sum is −0 only when both operands are,
// a difference only when the minuend is, so no slot part is ever −0: an
// exact cancellation, in assembly or elimination, leaves canonical 0+0i,
// and adding an exact zero — which the map assembly skips — leaves a
// slot unchanged.
//
// Step k reads the pivot row's slots at the still-active columns in
// ascending column order, then, for each target row in ascending row
// order (an active row with a structural entry in the pivot column), the
// target's slots at the same columns: the one at the pivot column is the
// multiplier source, the others receive the rank-1 update.
type compiled struct {
	n       int
	nnz     int // value slots
	pivRow  []int
	pivCol  []int
	detSign int
	slot    []int32 // value slot of each assembly position, in Add order
	steps   []step
	ucol    []int32 // pivot-row columns of every step
	uslot   []int32 // pivot-row slots, aligned with ucol
	trow    []int32 // target rows of every step
	tslot   []int32 // per target, its slots at its step's pivot-row columns
}

// step locates one elimination step in the compiled arrays.
type step struct {
	u0, u1 int32 // pivot row: ucol[u0:u1], uslot[u0:u1]
	piv    int32 // index of the pivot within the pivot row
	t0, t1 int32 // targets: trow[t0:t1]
	s0     int32 // tslot offset of the first target; each spans u1−u0 slots
}

// compile builds the compiled replay of f's pivot order over the
// structural positions pos (those of the assembly f was factored from).
// The pattern lives in one bitset row per matrix row while the symbolic
// elimination adds fill-in; a counting pass sizes every index array, and
// they share one exactly-sized backing array.
func compile(f *LU, pos [][2]int32) *compiled {
	n := f.n
	w := (n + 63) / 64
	pat := make([]uint64, n*w)
	row := func(i int) []uint64 { return pat[i*w : i*w+w] }
	has := func(i, j int) bool { return pat[i*w+j/64]&(1<<(j%64)) != 0 }
	for _, p := range pos {
		pat[int(p[0])*w+int(p[1])/64] |= 1 << (p[1] % 64)
	}
	active := make([]uint64, w) // columns not yet eliminated
	activate := func() {
		for j := 0; j < n; j++ {
			active[j/64] |= 1 << (j % 64)
		}
	}
	eliminated := make([]bool, n) // rows
	steps := make([]step, n)

	// Symbolic elimination, counting each step's pivot-row width and
	// targets. A target row's entries in the pivot column exist before the
	// step or never: fill only reaches still-active columns.
	activate()
	var nu, nt, ns int
	for k := range steps {
		bi, bj := f.pivRow[k], f.pivCol[k]
		prow := row(bi)
		width := 0
		for x, word := range prow {
			width += bits.OnesCount64(word & active[x])
		}
		active[bj/64] &^= 1 << (bj % 64)
		eliminated[bi] = true
		targets := 0
		for i := range eliminated {
			if eliminated[i] || !has(i, bj) {
				continue
			}
			targets++
			r := row(i)
			for x := range r {
				r[x] |= prow[x] & active[x]
			}
		}
		steps[k] = step{u0: int32(nu), u1: int32(nu + width), t0: int32(nt), t1: int32(nt + targets), s0: int32(ns)}
		nu, nt, ns = nu+width, nt+targets, ns+targets*width
	}

	// Slots number the final pattern row-major.
	base := make([]int32, n+1)
	for i := 0; i < n; i++ {
		c := 0
		for _, word := range row(i) {
			c += bits.OnesCount64(word)
		}
		base[i+1] = base[i] + int32(c)
	}
	slotOf := func(i, j int) int32 {
		r := row(i)
		s := base[i]
		for _, word := range r[:j/64] {
			s += int32(bits.OnesCount64(word))
		}
		return s + int32(bits.OnesCount64(r[j/64]&(1<<(j%64)-1)))
	}

	piv := make([]int, 2*n)
	copy(piv, f.pivRow)
	copy(piv[n:], f.pivCol)
	idx := make([]int32, len(pos)+2*nu+nt+ns)
	c := &compiled{n: n, nnz: int(base[n]), pivRow: piv[:n], pivCol: piv[n:], detSign: f.detSign, steps: steps}
	c.slot, idx = idx[:len(pos)], idx[len(pos):]
	c.ucol, idx = idx[:nu], idx[nu:]
	c.uslot, idx = idx[:nu], idx[nu:]
	c.trow, c.tslot = idx[:nt], idx[nt:]
	for k, p := range pos {
		c.slot[k] = slotOf(int(p[0]), int(p[1]))
	}

	// Fill the step arrays from the final pattern: a row's entries at the
	// columns active when it is eliminated are final by then.
	activate()
	clear(eliminated)
	for k := range steps {
		st := &steps[k]
		bi, bj := f.pivRow[k], f.pivCol[k]
		u := st.u0
		for x, word := range row(bi) {
			for m := word & active[x]; m != 0; m &= m - 1 {
				j := x*64 + bits.TrailingZeros64(m)
				if j == bj {
					st.piv = u - st.u0
				}
				c.ucol[u], c.uslot[u] = int32(j), slotOf(bi, j)
				u++
			}
		}
		active[bj/64] &^= 1 << (bj % 64)
		eliminated[bi] = true
		t, s := st.t0, st.s0
		for i := range eliminated {
			if eliminated[i] || !has(i, bj) {
				continue
			}
			c.trow[t] = int32(i)
			t++
			for _, j := range c.ucol[st.u0:st.u1] {
				c.tslot[s] = slotOf(i, int(j))
				s++
			}
		}
	}
	return c
}

// Workspace holds one evaluator's reusable factorization storage. A
// point is factored by Begin, one Add per stamp in the pattern's fixed
// order, then Factor.
//
// Once the shared plan is primed, the values go straight into a slot
// array laid out by the compiled plan and Factor runs the compiled
// replay into the workspace's LU; the steady state allocates nothing,
// and the returned LU aliases the workspace (valid only until the next
// factorization through it). Before priming, and for the fallback after
// a plan miss, the values go into a map Matrix — allocated on first use
// — for a full Markowitz factorization. A Workspace is not safe for
// concurrent use; the batched evaluation layer keeps one per worker.
type Workspace struct {
	plan *SharedPlan // plan to replay or prime; nil for a plain factorization

	// Compiled replay (c non-nil): one value per slot, filled by Add in
	// position order.
	c    *compiled
	vals []complex128
	next int

	// Full factorization: the matrix and the positions added to it.
	mat *Matrix
	pos [][2]int32

	lu   LU
	ubuf []urowEntry  // backing of lu.urows under the compiled replay
	mbuf []multEntry  // backing of lu.mults under the compiled replay
	fwd  []complex128 // forward-substitution scratch for SolveInto
}

// ensure sizes the per-step LU slices and the SolveInto scratch for an
// n×n factorization.
func (ws *Workspace) ensure(n int) {
	if cap(ws.lu.urows) < n {
		ws.lu.urows = make([][]urowEntry, n)
		ws.lu.mults = make([][]multEntry, n)
		ws.lu.pivVal = make([]complex128, 0, n)
		ws.fwd = make([]complex128, n)
	}
	ws.lu.urows = ws.lu.urows[:n]
	ws.lu.mults = ws.lu.mults[:n]
	ws.fwd = ws.fwd[:n]
}

// Begin starts assembling an n×n matrix for a factorization under sp:
// for the compiled replay when sp is primed, otherwise for a full
// Markowitz factorization that primes sp. Pass a nil sp for a plain full
// factorization, such as the fallback after ErrPlanMiss.
func (ws *Workspace) Begin(sp *SharedPlan, n int) {
	ws.plan = sp
	ws.c = nil
	if sp != nil {
		if c := sp.c.Load(); c != nil {
			ws.c, ws.next = c, 0
			if cap(ws.vals) < c.nnz {
				ws.vals = make([]complex128, c.nnz)
			}
			ws.vals = ws.vals[:c.nnz]
			clear(ws.vals)
			if cap(ws.ubuf) < len(c.ucol) {
				ws.ubuf = make([]urowEntry, len(c.ucol))
			}
			if cap(ws.mbuf) < len(c.trow) {
				ws.mbuf = make([]multEntry, len(c.trow))
			}
			ws.ensure(c.n)
			return
		}
	}
	if ws.mat == nil || ws.mat.n != n {
		ws.mat = New(n)
	} else {
		ws.mat.Reset()
	}
	ws.pos = ws.pos[:0]
}

// Add accumulates v into element (i, j) of the matrix being assembled,
// with Matrix.Add's rules: a zero adds nothing and an exact cancellation
// leaves an absent entry. Every call declares a structural position,
// whatever v is. Under the compiled replay the k-th Add goes to the slot
// of the k-th position of the priming assembly, so the caller must add
// the same positions in the same order at every point.
func (ws *Workspace) Add(i, j int, v complex128) {
	if ws.c == nil {
		ws.mat.Add(i, j, v)
		ws.pos = append(ws.pos, [2]int32{int32(i), int32(j)})
		return
	}
	ws.vals[ws.c.slot[ws.next]] += v
	ws.next++
}

// Factor factors the assembled matrix. Under the compiled replay it
// returns ErrPlanMiss when a planned pivot reads zero or fails the
// stability guard; the assembled values are consumed either way, so the
// caller re-assembles after Begin(nil, n). A full factorization that
// succeeds primes the plan Begin was given, if it is still unprimed.
func (ws *Workspace) Factor() (*LU, error) {
	if ws.c != nil {
		return ws.replay()
	}
	f, err := ws.mat.FactorInPlace(DefaultThreshold)
	if err == nil && ws.plan != nil {
		ws.plan.prime(f, ws.pos)
	}
	return f, err
}

// replay runs the compiled elimination on the assembled slot values,
// writing pivots, U rows and multipliers into the workspace's LU.
func (ws *Workspace) replay() (*LU, error) {
	c, v := ws.c, ws.vals
	f := &ws.lu
	f.n, f.pivRow, f.pivCol, f.detSign = c.n, c.pivRow, c.pivCol, c.detSign
	f.pivVal = f.pivVal[:0]
	for k := range c.steps {
		st := &c.steps[k]
		ucol, uslot := c.ucol[st.u0:st.u1], c.uslot[st.u0:st.u1]
		piv := v[uslot[st.piv]]
		if piv == 0 {
			return nil, ErrPlanMiss
		}
		rowMax := 0.0
		for _, s := range uslot {
			if a := cmplx.Abs(v[s]); a > rowMax {
				rowMax = a
			}
		}
		if cmplx.Abs(piv) < guardRatio*rowMax {
			return nil, ErrPlanMiss
		}
		u := ws.ubuf[st.u0:st.u0:st.u1]
		for p, s := range uslot {
			if x := v[s]; x != 0 {
				u = append(u, urowEntry{col: int(ucol[p]), val: x})
			}
		}
		f.urows[k] = u
		f.pivVal = append(f.pivVal, piv)
		width := len(uslot)
		mults := ws.mbuf[st.t0:st.t0:st.t1]
		for t, r := range c.trow[st.t0:st.t1] {
			off := int(st.s0) + t*width
			tsl := c.tslot[off : off+width]
			fv := v[tsl[st.piv]]
			if fv == 0 {
				continue
			}
			mult := fv / piv
			mults = append(mults, multEntry{row: int(r), mult: mult})
			for p, s := range uslot {
				x := v[s]
				if x == 0 || int32(p) == st.piv {
					continue
				}
				v[tsl[p]] -= mult * x
			}
		}
		f.mults[k] = mults
	}
	return f, nil
}
