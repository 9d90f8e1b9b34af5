package sparse

import (
	"math"
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

// Assembly is a matrix given as typed stamps: the structural positions
// of its values, in accumulation order, and the values as three blocks
// in that order. Position k < len(G) receives G[k]·gscale, the next
// len(U) positions receive U[k] as it is, and the rest receive
// s·fscale·C[k]. The circuit backends lay their stamps out this way —
// conductances, then (MNA) the unscaled ±1 and gain couplings, then
// capacitances and inductances — and gather the values once per system
// and pattern, so a point's assembly reads three flat slices.
type Assembly struct {
	N   int          // matrix order
	Pos [][2]int32   // len(G)+len(U)+len(C) positions
	G   []float64    // conductance block, scaled by gscale
	U   []complex128 // unscaled block
	C   []float64    // frequency block, scaled by s·fscale
}

// at returns the value of position k at the point whose frequency
// factor is sc = s·fscale.
func (a *Assembly) at(k int, sc complex128, gscale float64) complex128 {
	if k < len(a.G) {
		return complex(a.G[k]*gscale, 0)
	}
	if k -= len(a.G); k < len(a.U) {
		return a.U[k]
	}
	return sc * complex(a.C[k-len(a.U)], 0)
}

// accumulate writes the assembly's values into compiled slots, one lane
// per frequency factor: with L = len(sc) lanes and m = len(v)/L slots,
// lane l's slots are v[l·m : (l+1)·m], and value k at lane l is added
// into slot[k] of that lane, from zero and in assembly order; each value
// is the one at returns. The G and U blocks, which come first, add the
// same values to every lane, so lane 0 takes them and the other lanes
// copy its sums.
func (a *Assembly) accumulate(v []complex128, slot []int32, sc []complex128, gscale float64) {
	m := len(v) / len(sc)
	v0 := v[:m]
	clear(v0)
	k := 0
	for _, g := range a.G {
		v0[slot[k]] += complex(g*gscale, 0)
		k++
	}
	for _, x := range a.U {
		v0[slot[k]] += x
		k++
	}
	for l := 1; l < len(sc); l++ {
		copy(v[l*m:], v0)
	}
	slot = slot[k:]
	for l, f := range sc {
		vl := v[l*m : (l+1)*m]
		for k, c := range a.C {
			vl[slot[k]] += f * complex(c, 0)
		}
	}
}

// Workspace holds one evaluator's reusable factorization storage. A
// point is loaded by Assemble and factored by Factor; FactorAssembly
// does both and answers a plan miss. Dets evaluates determinants alone,
// and Solves determinants and solutions, several points per pass.
//
// Once the shared plan is primed, the values go straight into a slot
// array laid out by the compiled plan and Factor runs the compiled
// replay. Before priming, and for the fallback after a plan miss, the
// values go into flat rows for a full Markowitz factorization. Either
// way the LU is written into grow-only workspace buffers, so a reused
// workspace allocates nothing once it has factored its largest matrix,
// and the returned LU aliases the workspace (valid only until the next
// factorization through it). A workspace that only ever runs Dets on a
// primed plan holds the slot values alone. A Workspace is not safe for
// concurrent use; the batched evaluation layer keeps one per worker.
type Workspace struct {
	plan *SharedPlan // plan to replay or prime; nil for a plain factorization

	// Compiled replay (c non-nil): one value per slot, or per slot and
	// lane under Dets and Solves.
	c    *compiled
	vals []complex128

	// Full factorization: the assembled rows and the positions added.
	rows flatRows
	pos  [][2]int32

	lu   LU
	piv  []int        // pivot rows then columns of a full factorization; a replay's are the plan's
	ubuf []urowEntry  // backing of lu.urows
	mbuf []multEntry  // backing of lu.mults
	fwd  []complex128 // forward-substitution scratch for SolveInto, per lane under Solves
}

// ensure sizes the per-step LU slices for an n×n factorization.
func (ws *Workspace) ensure(n int) {
	if cap(ws.lu.urows) < n {
		ws.lu.urows = make([][]urowEntry, n)
		ws.lu.mults = make([][]multEntry, n)
		ws.lu.pivVal = make([]complex128, 0, n)
	}
	ws.lu.urows = ws.lu.urows[:n]
	ws.lu.mults = ws.lu.mults[:n]
}

// Assemble loads a's matrix at the point s under the scale factors
// fscale and gscale (see Assembly) for a factorization under sp. Value k
// is accumulated into element a.Pos[k], in order, with Matrix.Add's
// rules (a zero adds nothing and an exact cancellation leaves an absent
// entry). Every position is structural, whatever its value. When sp is
// primed, the values are added straight into the compiled plan's value
// slots — value k into the slot of the priming assembly's k-th position,
// so the caller must pass the same positions at every point. Otherwise
// they go into flat rows for a full Markowitz factorization that primes
// sp; pass a nil sp for a plain full factorization, such as the fallback
// after ErrPlanMiss. The workspace keeps a.Pos, not a copy, until the
// next Assemble.
func (ws *Workspace) Assemble(sp *SharedPlan, a *Assembly, s complex128, fscale, gscale float64) {
	ws.plan = sp
	ws.c = nil
	if sp != nil {
		ws.c = sp.c.Load()
	}
	sc := s * complex(fscale, 0)
	if c := ws.c; c != nil {
		ws.vals = resize(ws.vals, c.nnz)
		if cap(ws.ubuf) < len(c.ucol) {
			ws.ubuf = make([]urowEntry, len(c.ucol))
		}
		if cap(ws.mbuf) < len(c.trow) {
			ws.mbuf = make([]multEntry, len(c.trow))
		}
		ws.ensure(c.n)
		a.accumulate(ws.vals, c.slot, []complex128{sc}, gscale)
		return
	}
	ws.rows.reset(a.N)
	ws.pos = a.Pos
	for k, p := range a.Pos {
		ws.rows.add(int(p[0]), int(p[1]), a.at(k, sc, gscale))
	}
}

// FactorAssembly assembles a at s under sp (see Assemble) and factors
// the matrix. When the compiled replay misses, it re-assembles the same
// values for a private full factorization, leaving the plan untouched,
// so the result at a point never depends on which points were factored
// before it (beyond the one-time priming).
func (ws *Workspace) FactorAssembly(sp *SharedPlan, a *Assembly, s complex128, fscale, gscale float64) (*LU, error) {
	return ws.factorAssembly(sp, a, s, fscale, gscale, true)
}

// factorAssembly is FactorAssembly; see factor for record.
func (ws *Workspace) factorAssembly(sp *SharedPlan, a *Assembly, s complex128, fscale, gscale float64, record bool) (*LU, error) {
	ws.Assemble(sp, a, s, fscale, gscale)
	f, err := ws.factor(record)
	if err == ErrPlanMiss {
		ws.Assemble(nil, a, s, fscale, gscale)
		f, err = ws.factor(record)
	}
	return f, err
}

// Factor factors the assembled matrix. Under the compiled replay it
// returns ErrPlanMiss when a planned pivot reads zero or fails the
// stability guard; the assembled values are consumed either way, so the
// caller re-assembles with a nil plan. A full factorization that
// succeeds primes the plan Assemble was given, if it is still unprimed.
func (ws *Workspace) Factor() (*LU, error) { return ws.factor(true) }

// factor is Factor. With record false a full factorization keeps only
// the pivots (see markowitz): the determinant, and the pivot order a plan
// is primed with.
func (ws *Workspace) factor(record bool) (*LU, error) {
	if ws.c != nil {
		return ws.replay()
	}
	f, err := ws.markowitz(DefaultThreshold, record)
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
		if unsafePivot(piv, v, uslot) {
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
		div := newDivisor(piv)
		width := len(uslot)
		mults := ws.mbuf[st.t0:st.t0:st.t1]
		for t, r := range c.trow[st.t0:st.t1] {
			off := int(st.s0) + t*width
			tsl := c.tslot[off : off+width]
			fv := v[tsl[st.piv]]
			if fv == 0 {
				continue
			}
			mult := div.quo(fv)
			mults = append(mults, multEntry{row: int(r), mult: mult})
			eliminate(v, uslot, tsl, int(st.piv), mult)
		}
		f.mults[k] = mults
	}
	return f, nil
}

// eliminate subtracts mult times the pivot row, the values v[uslot],
// from the target row, the values v[tsl] — skipping the pivot column,
// which is the target's multiplier source, and every exact zero of the
// pivot row.
func eliminate(v []complex128, uslot, tsl []int32, piv int, mult complex128) {
	tsl = tsl[:len(uslot)]
	for p, s := range uslot[:piv] {
		if x := v[s]; x != 0 {
			v[tsl[p]] -= mult * x
		}
	}
	for p := piv + 1; p < len(uslot); p++ {
		if x := v[uslot[p]]; x != 0 {
			v[tsl[p]] -= mult * x
		}
	}
}

// unsafePivot is the stability guard: it reports whether |piv| <
// guardRatio × the largest magnitude among the row values v[uslot]. The
// max-norm prefilter guardClears settles most pivots without a hypot;
// the rest take the exact test, so the decision is the exact test's on
// every input.
func unsafePivot(piv complex128, v []complex128, uslot []int32) bool {
	// rowInf is the row's largest component magnitude. A NaN component
	// is skipped, so an entry with an infinite component always counts,
	// as hypot counts it.
	rowInf := 0.0
	for _, s := range uslot {
		if a := math.Abs(real(v[s])); a > rowInf {
			rowInf = a
		}
		if a := math.Abs(imag(v[s])); a > rowInf {
			rowInf = a
		}
	}
	if guardClears(piv, rowInf) {
		return false
	}
	rowMax := 0.0
	for _, s := range uslot {
		if a := cmplx.Abs(v[s]); a > rowMax {
			rowMax = a
		}
	}
	return cmplx.Abs(piv) < guardRatio*rowMax
}

// guardClears reports whether piv passes the stability guard by its max
// norm alone, given rowInf, the largest component magnitude of its row.
// Since |z|∞ ≤ |z| ≤ √2·|z|∞, |piv|∞ ≥ 1.5·guardRatio·rowInf implies
// |piv| ≥ guardRatio·|z| for every row entry z, with room for the
// rounding of hypot and of both products. Below 2^1023 no row entry's
// hypot overflows; a larger or infinite rowInf, and a NaN pivot
// component, defer to the exact test.
func guardClears(piv complex128, rowInf float64) bool {
	pivInf := max(math.Abs(real(piv)), math.Abs(imag(piv)))
	return pivInf >= 1.5*guardRatio*rowInf && rowInf < 0x1p1023
}
