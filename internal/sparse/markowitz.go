package sparse

import (
	"cmp"
	"math/cmplx"
	"slices"
)

// initialRoom is the number of items each run is given when an arena is
// reset; circuit rows and columns hold a handful of entries, so most
// never move.
const initialRoom = 4

// arena keeps n growable runs of items in one backing slice: run i
// occupies items[off[i] : off[i]+cnt[i]] with room for room[i] items. A
// run that outgrows its room moves to the arena's end with twice the
// room. When the arena's capacity runs out, the runs are compacted to
// its front, and only if that frees too little does it grow. Every
// buffer only grows, so a reused arena allocates nothing once it has
// held its largest contents.
type arena[T any] struct {
	items []T
	off   []int32
	cnt   []int32
	room  []int32
	meta  []int32 // backing of off, cnt and room
	order []int32 // compaction scratch: the runs by offset
}

// resize returns s with length n, reallocating only when its capacity is
// short; the contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset empties the arena into n runs of initialRoom items each. A new
// backing array is allocated with as much capacity again, for the runs
// that outgrow their room to move into.
func (r *arena[T]) reset(n int) {
	if cap(r.items) < 2*n*initialRoom {
		r.items = make([]T, n*initialRoom, 2*n*initialRoom)
	}
	r.items = r.items[:n*initialRoom]
	r.meta = resize(r.meta, 3*n)
	r.off, r.cnt, r.room = r.meta[:n], r.meta[n:2*n], r.meta[2*n:]
	for i := range n {
		r.off[i], r.cnt[i], r.room[i] = int32(i*initialRoom), 0, initialRoom
	}
}

// layout empties the arena into runs laid out in order, run i with room
// start[i+1]−start[i] (start holds n+1 offsets from 0). A new backing
// array is allocated with as much capacity again, for the runs that
// outgrow their room to move into.
func (r *arena[T]) layout(start []int32) {
	n, total := len(start)-1, int(start[len(start)-1])
	if cap(r.items) < 2*total {
		r.items = make([]T, total, 2*total)
	}
	r.items = r.items[:total]
	r.meta = resize(r.meta, 3*n)
	r.off, r.cnt, r.room = r.meta[:n], r.meta[n:2*n], r.meta[2*n:]
	for i := range n {
		r.off[i], r.cnt[i], r.room[i] = start[i], 0, start[i+1]-start[i]
	}
}

// run returns the items of run i.
func (r *arena[T]) run(i int) []T {
	o := r.off[i]
	return r.items[o : o+r.cnt[i]]
}

// push appends x to run i, first moving the run to the arena's end when
// its room is full. Item indices within the run survive the move, but
// slices of any run's items do not.
func (r *arena[T]) push(i int, x T) {
	if r.cnt[i] == r.room[i] {
		room := max(2*r.room[i], initialRoom)
		if len(r.items)+int(room) > cap(r.items) {
			r.compact()
		}
		end := int32(len(r.items))
		r.items = append(r.items, make([]T, room)...)
		copy(r.items[end:], r.run(i))
		r.off[i], r.room[i] = end, room
	}
	r.items[r.off[i]+r.cnt[i]] = x
	r.cnt[i]++
}

// compact moves the runs to the front of the arena, each keeping room
// for exactly its items, so that the regions moved runs left behind and
// the room of emptied runs become free capacity at the end. Runs move in
// offset order, so a run never overwrites one not yet moved.
func (r *arena[T]) compact() {
	order := r.order[:0]
	for i := range r.off {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(r.off[a], r.off[b]) })
	end := int32(0)
	for _, i := range order {
		copy(r.items[end:], r.run(int(i)))
		r.off[i], r.room[i] = end, r.cnt[i]
		end += r.cnt[i]
	}
	r.items, r.order = r.items[:end], order
}

// cell is one stored entry of a flat row: its column, its value and the
// cached magnitude of that value, refreshed whenever the value changes.
type cell struct {
	col int32
	val complex128
	abs float64
}

// flatRows is a matrix laid out for Markowitz elimination: every row is
// a run of cells, in no particular column order. As in Matrix, a stored
// value is never zero — an exact cancellation removes the cell — so the
// elimination uses a zero value to mark a cell for removal.
//
// The fields after the rows are elimination scratch; like the arena,
// every buffer only grows.
type flatRows struct {
	arena[cell]
	n int

	cols    arena[colEntry] // per column, its entries in the active rows, by ascending row
	byCount buckets         // the active rows and columns by entry count
	colMax  []float64       // largest magnitude per column over the active rows
	targets []int32         // the current step's target rows
	at      []int32         // scatter of the row being updated: column → cell index, or −1
	seen    []bool          // permutation-parity scratch
	start   []int32         // assembly scratch: per row, the offset of its room in the arena
}

// reset empties the rows for an n×n matrix.
func (r *flatRows) reset(n int) {
	r.n = n
	r.arena.reset(n)
}

// row returns the cells of row i.
func (r *flatRows) row(i int) []cell { return r.run(i) }

// assemble loads the matrix a assembles at the frequency factor sc and
// conductance scale gscale, value k accumulated into element a.Pos[k]
// with Matrix.Add's rules: a zero adds nothing, a sum that cancels
// exactly removes the cell, and an add to an absent cell stores 0 + v,
// as the map's zero value would. Each row gets room for all its
// positions, and the values are first sorted into their rows' room in
// assembly order, so no row moves. Each row then merges its values in
// place through a scatter of its columns, so no add scans the row, and
// every element sums its values in Matrix.Add's order, bit for bit. A
// cell whose sum cancels holds zero until its row is complete, and a
// later add to it starts again from 0 + v, as a re-inserted entry would.
func (r *flatRows) assemble(a *Assembly, sc complex128, gscale float64) {
	n := a.N
	r.n = n
	r.start = resize(r.start, n+1)
	clear(r.start)
	for _, p := range a.Pos {
		r.start[p[0]+1]++
	}
	for i := range n {
		r.start[i+1] += r.start[i]
	}
	r.arena.layout(r.start)
	// Sort the nonzero values into their rows; cnt counts each row's.
	for k, p := range a.Pos {
		if v := a.at(k, sc, gscale); v != 0 {
			i := p[0]
			r.items[r.off[i]+r.cnt[i]] = cell{col: p[1], val: v}
			r.cnt[i]++
		}
	}
	r.at = resize(r.at, n)
	for j := range r.at {
		r.at[j] = -1
	}
	var zero complex128
	for i := range n {
		row := r.run(i)
		cells := row[:0]
		for _, e := range row {
			p := r.at[e.col]
			if p < 0 {
				r.at[e.col] = int32(len(cells))
				cells = append(cells, cell{col: e.col, val: zero + e.val})
				continue
			}
			if c := &cells[p]; c.val == 0 {
				c.val = zero + e.val
			} else {
				c.val += e.val
			}
		}
		kept := row[:0]
		for _, c := range cells {
			r.at[c.col] = -1
			if c.val != 0 {
				kept = append(kept, c)
			}
		}
		r.cnt[i] = int32(len(kept))
	}
}

// colEntry is one stored entry seen from its column: its row and the
// cached magnitude of its cell.
type colEntry struct {
	row int32
	abs float64
}

// colIndex returns the index of row i in column j's list, which must
// hold it.
func (r *flatRows) colIndex(j int, i int32) int {
	return slices.IndexFunc(r.cols.run(j), func(e colEntry) bool { return e.row == i })
}

// insertRow adds row i, with magnitude a, to column j's list.
func (r *flatRows) insertRow(j int, i int32, a float64) {
	r.cols.push(j, colEntry{i, a})
	es := r.cols.run(j)
	k := len(es) - 1
	for ; k > 0 && es[k-1].row > i; k-- {
		es[k] = es[k-1]
	}
	es[k] = colEntry{i, a}
}

// removeRow deletes row i from column j's list, keeping its order.
func (r *flatRows) removeRow(j int, i int32) {
	es := r.cols.run(j)
	k := r.colIndex(j, i)
	copy(es[k:], es[k+1:])
	r.cols.cnt[j]--
}

// buckets keeps the active rows and columns of an n×n elimination in
// doubly linked lists by entry count, in no particular order: node i is
// row i and node n+j column j; list k holds the rows with k entries and
// list n+1+k the columns with k entries.
type buckets struct {
	n                int
	head             []int32 // first node of each list, or −1
	next, prev, list []int32 // per node: its neighbours (−1 at the ends) and its list (−1 when in none)
	mem              []int32 // backing of the four
}

func (b *buckets) reset(n int) {
	b.n = n
	b.mem = resize(b.mem, 2*(n+1)+6*n)
	m := b.mem
	b.head, b.next, b.prev, b.list = m[:2*(n+1)], m[2*(n+1):2*(n+1)+2*n], m[2*(n+1)+2*n:2*(n+1)+4*n], m[2*(n+1)+4*n:]
	for k := range b.head {
		b.head[k] = -1
	}
	for x := range b.list {
		b.list[x] = -1
	}
}

// remove takes node x out of its list.
func (b *buckets) remove(x int) {
	l := b.list[x]
	if l < 0 {
		return
	}
	nx, pv := b.next[x], b.prev[x]
	if pv >= 0 {
		b.next[pv] = nx
	} else {
		b.head[l] = nx
	}
	if nx >= 0 {
		b.prev[nx] = pv
	}
	b.list[x] = -1
}

// put moves node x to list l.
func (b *buckets) put(x int, l int32) {
	b.remove(x)
	h := b.head[l]
	b.next[x], b.prev[x], b.list[x] = h, -1, l
	if h >= 0 {
		b.prev[h] = int32(x)
	}
	b.head[l] = int32(x)
}

// setRow files row i under its count cnt, setCol column j under its.
func (b *buckets) setRow(i int, cnt int32) { b.put(i, cnt) }
func (b *buckets) setCol(j int, cnt int32) { b.put(b.n+j, int32(b.n+1)+cnt) }

// pivotPick is the best pivot candidate seen by a search.
type pivotPick struct {
	cost int
	abs  float64
	i, j int
}

// offer replaces the pick by candidate (i, j) when the candidate ranks
// first under the pivot rule: smaller cost, then larger magnitude (a NaN
// magnitude below every number), then smaller row, then smaller column.
// That is a total order, so the pick does not depend on the order in
// which candidates are offered.
func (p *pivotPick) offer(cost int, a float64, i, j int) {
	if cost < p.cost || (cost == p.cost && (magBefore(a, p.abs) ||
		(magSame(a, p.abs) && (p.i < 0 || i < p.i || (i == p.i && j < p.j))))) {
		*p = pivotPick{cost, a, i, j}
	}
}

// magBefore reports whether magnitude a ranks before b: it is larger, or
// b alone is NaN.
func magBefore(a, b float64) bool { return a > b || (b != b && a == a) }

// magSame reports whether magnitudes a and b rank equal: both are the
// same number, or both are NaN.
func magSame(a, b float64) bool { return a == b || (a != a && b != b) }

// markowitz factors the assembled rows into the workspace's LU, which
// aliases the workspace like a compiled replay's does. At each step the
// pivot with minimal Markowitz count (r−1)(c−1) is chosen among entries
// passing |a| ≥ threshold·max|column|; ties break toward larger
// magnitude, then toward the smallest (row, column) pair (see
// pivotPick.offer), so the pivot sequence — and with it every rounded
// intermediate — is a pure function of the matrix values, whatever order
// the cells are stored in. The rows are consumed.
//
// The search (flatRows.search) sees only the entries that can win or
// tie. Column lists name each step's target rows, and only the columns
// of the pivot row need their maxima recomputed.
//
// With record false the LU keeps its pivots alone — enough for LU.Det
// and for priming a plan — and no U rows or multipliers, so it must not
// be solved with.
func (ws *Workspace) markowitz(threshold float64, record bool) (*LU, error) {
	r := &ws.rows
	n := r.n
	f := &ws.lu
	if record {
		ws.ensure(n)
	} else {
		f.urows, f.mults = f.urows[:0], f.mults[:0]
		if cap(f.pivVal) < n {
			f.pivVal = make([]complex128, 0, n)
		}
	}
	ws.piv = resize(ws.piv, 2*n)
	f.n, f.detSign = n, 1
	f.pivRow, f.pivCol, f.pivVal = ws.piv[:0:n], ws.piv[n:n:2*n], f.pivVal[:0]

	r.cols.reset(n)
	r.byCount.reset(n)
	r.colMax = resize(r.colMax, n)
	r.at = resize(r.at, n)
	r.seen = resize(r.seen, n)
	r.targets = resize(r.targets, n)
	clear(r.colMax)
	nnz := 0
	for i := range n {
		r.at[i] = -1
		row := r.row(i)
		for k := range row {
			a := cmplx.Abs(row[k].val)
			row[k].abs = a
			if a > r.colMax[row[k].col] {
				r.colMax[row[k].col] = a
			}
			r.cols.push(int(row[k].col), colEntry{int32(i), a})
		}
		nnz += len(row)
	}
	for i := range n {
		r.byCount.setRow(i, r.cnt[i])
		r.byCount.setCol(i, r.cols.cnt[i])
	}
	// The U rows hold every stored entry plus fill, and the multipliers
	// about as many; both buffers grow by append when that guess is short.
	// Without recording, u holds one pivot row at a time.
	u, mb := ws.ubuf[:0], ws.mbuf[:0]
	if !record {
		nnz = n
	}
	if cap(u) < nnz {
		u = make([]urowEntry, 0, nnz)
	}
	if cap(mb) < nnz && record {
		mb = make([]multEntry, 0, nnz)
	}

	for step := range n {
		best := r.search(threshold)
		if best.i < 0 {
			ws.ubuf, ws.mbuf = u, mb
			return nil, ErrSingular
		}
		bi, bj := best.i, best.j
		// Snapshot the pivot row as a column-sorted U row, which is also the
		// pivot row the update reads: the arena may move under it. The
		// row's cells are then dropped, and the row leaves every column.
		var piv complex128
		if !record {
			u = u[:0]
		}
		u0 := len(u)
		for _, c := range r.row(bi) {
			if int(c.col) == bj {
				piv = c.val
			}
			u = append(u, urowEntry{col: int(c.col), val: c.val})
			r.removeRow(int(c.col), int32(bi))
		}
		r.cnt[bi] = 0
		urow := u[u0:]
		slices.SortFunc(urow, func(a, b urowEntry) int { return a.col - b.col })
		f.pivRow = append(f.pivRow, bi)
		f.pivCol = append(f.pivCol, bj)
		f.pivVal = append(f.pivVal, piv)
		if record {
			f.urows[step] = urow
		}
		r.byCount.remove(bi)
		r.byCount.remove(n + bj)

		// Rank-1 update of the active submatrix, target rows ascending: the
		// pivot column's rows, copied out because the update moves runs.
		r.targets = r.targets[:0]
		for _, e := range r.cols.run(bj) {
			r.targets = append(r.targets, e.row)
		}
		r.cols.cnt[bj] = 0
		m0 := len(mb)
		for _, i32 := range r.targets {
			i := int(i32)
			row := r.row(i)
			k := slices.IndexFunc(row, func(c cell) bool { return int(c.col) == bj })
			mult := row[k].val / piv
			if record {
				mb = append(mb, multEntry{row: i, mult: mult})
			}
			row[k].val = 0
			for p, c := range row {
				r.at[c.col] = int32(p)
			}
			for _, pe := range urow {
				if pe.col == bj {
					continue
				}
				j := int32(pe.col)
				if p := r.at[j]; p >= 0 {
					c := &r.items[r.off[i]+p]
					if nv := c.val - mult*pe.val; nv != 0 {
						c.val, c.abs = nv, cmplx.Abs(nv)
						r.cols.run(int(j))[r.colIndex(int(j), i32)].abs = c.abs
					} else {
						c.val = 0
						r.removeRow(int(j), i32)
					}
					continue
				}
				var zero complex128
				if nv := zero - mult*pe.val; nv != 0 {
					a := cmplx.Abs(nv)
					r.insertRow(int(j), i32, a)
					r.push(i, cell{col: j, val: nv, abs: a})
				}
			}
			// Clear the scatter and drop the cells that became zero: the
			// pivot-column entry and the exact cancellations.
			row = r.row(i)
			kept := row[:0]
			for _, c := range row {
				r.at[c.col] = -1
				if c.val != 0 {
					kept = append(kept, c)
				}
			}
			r.cnt[i] = int32(len(kept))
			r.byCount.setRow(i, r.cnt[i])
		}
		if record {
			f.mults[step] = mb[m0:]
		}
		// Only the pivot row's columns changed: refile them and recompute
		// their maxima.
		for _, pe := range urow {
			if pe.col != bj {
				r.byCount.setCol(pe.col, r.cols.cnt[pe.col])
			}
			m := 0.0
			for _, e := range r.cols.run(pe.col) {
				if e.abs > m {
					m = e.abs
				}
			}
			r.colMax[pe.col] = m
		}
	}
	ws.ubuf, ws.mbuf = u, mb
	if parity(f.pivRow, r.seen)*parity(f.pivCol, r.seen) < 0 {
		f.detSign = -1
	}
	return f, nil
}

// search finds the pivot of one elimination step among the active rows
// and columns (see markowitz), or reports i < 0 when no entry passes the
// threshold test. Level k = 1, 2, … visits the rows and the columns with
// exactly k entries. Before level k, every entry not yet seen has at least k entries in both its row and
// its column, so it costs at least (k−1)²; once that exceeds the best
// cost, no unseen entry can win or tie, and the search stops.
func (r *flatRows) search(threshold float64) pivotPick {
	b := &r.byCount
	best := pivotPick{cost: int(^uint(0) >> 1), i: -1, j: -1}
	for k := 1; k <= r.n && (k-1)*(k-1) <= best.cost; k++ {
		for i := b.head[k]; i >= 0; i = b.next[i] {
			for _, e := range r.row(int(i)) {
				if !(e.abs < threshold*r.colMax[e.col]) { // a NaN magnitude passes
					best.offer((k-1)*(int(r.cols.cnt[e.col])-1), e.abs, int(i), int(e.col))
				}
			}
		}
		for x := b.head[r.n+1+k]; x >= 0; x = b.next[x] {
			j := int(x) - r.n
			for _, e := range r.cols.run(j) {
				if !(e.abs < threshold*r.colMax[j]) {
					best.offer((int(r.cnt[e.row])-1)*(k-1), e.abs, int(e.row), j)
				}
			}
		}
	}
	return best
}
