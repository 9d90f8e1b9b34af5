package sparse

import (
	"cmp"
	"math/cmplx"
	"slices"
)

// initialRoom is the number of cells each row is given when a flatRows
// is reset; circuit rows hold a handful of entries, so most never move.
const initialRoom = 4

// cell is one stored entry of a flat row: its column, its value and the
// cached magnitude of that value, refreshed whenever the value changes.
type cell struct {
	col int32
	val complex128
	abs float64
}

// flatRows is a matrix laid out for Markowitz elimination: every row is
// a run of cells in one arena, in no particular column order. Row i
// occupies cells[off[i] : off[i]+cnt[i]] with room for room[i] cells; a
// row that outgrows its room moves to the arena's end with twice the
// room. When the arena's capacity runs out, the rows are compacted to
// its front, and only if that frees too little does it grow. As in
// Matrix, a stored value is never zero — an exact cancellation removes
// the cell — so the elimination uses a zero value to mark a cell for
// removal.
//
// The fields after the rows are elimination scratch. Every buffer only
// grows, so a reused flatRows factors without allocating once it has
// held its largest matrix.
type flatRows struct {
	n     int
	cells []cell
	off   []int32
	cnt   []int32
	room  []int32

	active   []int32   // rows not yet eliminated, ascending
	order    []int32   // compaction scratch: the rows by offset
	colCount []int32   // cells per column over the active rows
	colMax   []float64 // largest magnitude per column over the active rows
	at       []int32   // scatter of the row being updated: column → cell index, or −1
	seen     []bool    // permutation-parity scratch
}

// resize returns s with length n, reallocating only when its capacity is
// short; the contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset empties the rows for an n×n matrix, giving each row initialRoom
// cells. A new arena is allocated with as much capacity again, for the
// rows that outgrow their room to move into.
func (r *flatRows) reset(n int) {
	r.n = n
	if cap(r.cells) < 2*n*initialRoom {
		r.cells = make([]cell, n*initialRoom, 2*n*initialRoom)
	}
	r.cells = r.cells[:n*initialRoom]
	r.off = resize(r.off, n)
	r.cnt = resize(r.cnt, n)
	r.room = resize(r.room, n)
	for i := 0; i < n; i++ {
		r.off[i], r.cnt[i], r.room[i] = int32(i*initialRoom), 0, initialRoom
	}
}

// row returns the cells of row i.
func (r *flatRows) row(i int) []cell {
	o := r.off[i]
	return r.cells[o : o+r.cnt[i]]
}

// push appends c to row i, first moving the row to the arena's end when
// its room is full. Cell indices within the row survive the move, but
// slices of any row's cells do not.
func (r *flatRows) push(i int, c cell) {
	if r.cnt[i] == r.room[i] {
		room := max(2*r.room[i], initialRoom)
		if len(r.cells)+int(room) > cap(r.cells) {
			r.compact()
		}
		end := int32(len(r.cells))
		r.cells = append(r.cells, make([]cell, room)...)
		copy(r.cells[end:], r.row(i))
		r.off[i], r.room[i] = end, room
	}
	r.cells[r.off[i]+r.cnt[i]] = c
	r.cnt[i]++
}

// compact moves the rows to the front of the arena, each keeping room
// for exactly its cells, so that the regions moved rows left behind and
// the room of eliminated rows, which hold no cells, become free capacity
// at the end. Rows move in offset order, so a row never overwrites one
// not yet moved.
func (r *flatRows) compact() {
	order := r.order[:0]
	for i := range r.n {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(r.off[a], r.off[b]) })
	end := int32(0)
	for _, i := range order {
		copy(r.cells[end:], r.row(int(i)))
		r.off[i], r.room[i] = end, r.cnt[i]
		end += r.cnt[i]
	}
	r.cells, r.order = r.cells[:end], order
}

// add accumulates v into element (i, j) with Matrix.Add's rules: a zero
// adds nothing, a sum that cancels exactly removes the cell, and an add
// to an absent cell stores 0 + v, as the map's zero value would.
func (r *flatRows) add(i, j int, v complex128) {
	if v == 0 {
		return
	}
	row := r.row(i)
	for k := range row {
		if row[k].col != int32(j) {
			continue
		}
		if nv := row[k].val + v; nv != 0 {
			row[k].val = nv
		} else {
			row[k] = row[len(row)-1]
			r.cnt[i]--
		}
		return
	}
	var zero complex128
	r.push(i, cell{col: int32(j), val: zero + v})
}

// markowitz factors the assembled rows into the workspace's LU, which
// aliases the workspace like a compiled replay's does. At each step the
// pivot with minimal Markowitz count (r−1)(c−1) is chosen among entries
// passing |a| ≥ threshold·max|column|; ties break toward larger
// magnitude, then toward the smallest (row, column) pair, so the pivot
// sequence — and with it every rounded intermediate — is a pure function
// of the matrix values, whatever order the cells are stored in. The
// rows are consumed.
func (ws *Workspace) markowitz(threshold float64) (*LU, error) {
	r := &ws.rows
	n := r.n
	ws.ensure(n)
	ws.piv = resize(ws.piv, 2*n)
	f := &ws.lu
	f.n, f.detSign = n, 1
	f.pivRow, f.pivCol, f.pivVal = ws.piv[:0:n], ws.piv[n:n:2*n], f.pivVal[:0]

	r.active = resize(r.active, n)
	r.colCount = resize(r.colCount, n)
	r.colMax = resize(r.colMax, n)
	r.at = resize(r.at, n)
	r.seen = resize(r.seen, n)
	clear(r.colCount)
	nnz := 0
	for i := 0; i < n; i++ {
		r.active[i], r.at[i] = int32(i), -1
		row := r.row(i)
		for k := range row {
			row[k].abs = cmplx.Abs(row[k].val)
			r.colCount[row[k].col]++
		}
		nnz += len(row)
	}
	// The U rows hold every stored entry plus fill, and the multipliers
	// about as many; both buffers grow by append when that guess is short.
	u, mb := ws.ubuf[:0], ws.mbuf[:0]
	if cap(u) < nnz {
		u = make([]urowEntry, 0, nnz)
	}
	if cap(mb) < nnz {
		mb = make([]multEntry, 0, nnz)
	}

	for step := 0; step < n; step++ {
		active := r.active[:n-step]
		// Column max magnitudes over active rows, for the threshold test.
		// An active row holds only active columns: eliminating a column
		// removes it from every active row.
		clear(r.colMax)
		for _, i := range active {
			for _, c := range r.row(int(i)) {
				if c.abs > r.colMax[c.col] {
					r.colMax[c.col] = c.abs
				}
			}
		}
		// Pivot search: minimal (r−1)(c−1), ties broken by magnitude.
		bestCost := int(^uint(0) >> 1)
		bestAbs := 0.0
		bi, bj, at := -1, -1, 0
		for k, i32 := range active {
			i := int(i32)
			row := r.row(i)
			rc := len(row)
			for _, c := range row {
				a, j := c.abs, int(c.col)
				if a < threshold*r.colMax[j] {
					continue
				}
				cost := (rc - 1) * (int(r.colCount[j]) - 1)
				better := cost < bestCost ||
					(cost == bestCost && (a > bestAbs ||
						(a == bestAbs && (bi < 0 || i < bi || (i == bi && j < bj)))))
				if better {
					bestCost, bestAbs, bi, bj, at = cost, a, i, j, k
				}
			}
		}
		if bi < 0 {
			ws.ubuf, ws.mbuf = u, mb
			return nil, ErrSingular
		}
		// Snapshot the pivot row as a column-sorted U row, which is also the
		// pivot row the update reads: the arena may move under it. The
		// row's cells are then dropped.
		var piv complex128
		u0 := len(u)
		for _, c := range r.row(bi) {
			if int(c.col) == bj {
				piv = c.val
			}
			u = append(u, urowEntry{col: int(c.col), val: c.val})
			r.colCount[c.col]--
		}
		r.cnt[bi] = 0
		urow := u[u0:]
		slices.SortFunc(urow, func(a, b urowEntry) int { return a.col - b.col })
		f.pivRow = append(f.pivRow, bi)
		f.pivCol = append(f.pivCol, bj)
		f.pivVal = append(f.pivVal, piv)
		f.urows[step] = urow
		active = append(active[:at], active[at+1:]...)

		// Rank-1 update of the active submatrix, target rows ascending.
		m0 := len(mb)
		for _, i32 := range active {
			i := int(i32)
			row := r.row(i)
			k := slices.IndexFunc(row, func(c cell) bool { return int(c.col) == bj })
			if k < 0 {
				continue
			}
			mult := row[k].val / piv
			mb = append(mb, multEntry{row: i, mult: mult})
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
					c := &r.cells[r.off[i]+p]
					if nv := c.val - mult*pe.val; nv != 0 {
						c.val, c.abs = nv, cmplx.Abs(nv)
					} else {
						c.val = 0
						r.colCount[j]--
					}
					continue
				}
				var zero complex128
				if nv := zero - mult*pe.val; nv != 0 {
					r.colCount[j]++
					r.push(i, cell{col: j, val: nv, abs: cmplx.Abs(nv)})
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
		}
		f.mults[step] = mb[m0:]
	}
	ws.ubuf, ws.mbuf = u, mb
	if parity(f.pivRow, r.seen)*parity(f.pivCol, r.seen) < 0 {
		f.detSign = -1
	}
	return f, nil
}
