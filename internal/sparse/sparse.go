// Package sparse implements a sparse complex LU solver with Markowitz
// pivoting, the formulation engine behind every interpolation-point
// evaluation (the paper: "the described algorithm has been implemented
// using sparse matrix techniques").
//
// Circuit matrices are extremely sparse (a handful of entries per row),
// and the reference generator factors the same pattern at dozens of
// interpolation points per iteration, so fill-minimizing pivot selection
// pays off. Pivots are chosen to minimize the Markowitz count
// (r−1)(c−1) subject to a relative magnitude threshold against the
// largest entry of the candidate's column, which bounds element growth.
package sparse

import (
	"errors"
	"fmt"
	"math/cmplx"
	"slices"

	"repro/internal/xmath"
)

// ErrSingular is returned when factorization meets an exactly singular
// matrix.
var ErrSingular = errors.New("sparse: matrix is singular")

// ErrPlanMiss is returned by Workspace.Factor when the compiled pivot
// order could not be replayed (a planned pivot read zero or failed the
// stability guard). The assembled values are destroyed by the failed
// replay; the caller must re-assemble the matrix for a full
// factorization.
var ErrPlanMiss = errors.New("sparse: planned pivot order failed on this matrix")

// DefaultThreshold is the relative pivot magnitude threshold u: a pivot
// candidate must satisfy |a| ≥ u·max|column|. 0.1 is the customary
// compromise between sparsity and stability (Duff/Erisman/Reid).
const DefaultThreshold = 0.1

// Matrix is a square sparse complex matrix assembled by accumulation.
type Matrix struct {
	n    int
	rows []map[int]complex128
}

// New returns an n×n zero matrix.
func New(n int) *Matrix {
	if n < 0 {
		panic("sparse: negative dimension")
	}
	rows := make([]map[int]complex128, n)
	for i := range rows {
		rows[i] = make(map[int]complex128, 8)
	}
	return &Matrix{n: n, rows: rows}
}

// N returns the dimension.
func (m *Matrix) N() int { return m.n }

// Add accumulates v into element (i, j); exact cancellations remove the
// entry so the pattern stays tight.
func (m *Matrix) Add(i, j int, v complex128) {
	if v == 0 {
		return
	}
	nv := m.rows[i][j] + v
	if nv == 0 {
		delete(m.rows[i], j)
		return
	}
	m.rows[i][j] = nv
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) {
	if v == 0 {
		delete(m.rows[i], j)
		return
	}
	m.rows[i][j] = v
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.rows[i][j] }

// NNZ returns the number of stored nonzeros.
func (m *Matrix) NNZ() int {
	t := 0
	for _, r := range m.rows {
		t += len(r)
	}
	return t
}

// Reset zeroes every entry while keeping the allocated row maps, so a
// scratch matrix can be re-assembled once per evaluation point without
// re-allocating its pattern storage.
func (m *Matrix) Reset() {
	for _, r := range m.rows {
		clear(r)
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.n)
	for i, r := range m.rows {
		for j, v := range r {
			c.rows[i][j] = v
		}
	}
	return c
}

// Minor returns the matrix with the given rows and columns removed.
func (m *Matrix) Minor(rows, cols []int) *Matrix {
	dropRow := make(map[int]bool, len(rows))
	for _, r := range rows {
		dropRow[r] = true
	}
	dropCol := make(map[int]bool, len(cols))
	for _, c := range cols {
		dropCol[c] = true
	}
	rowMap := make([]int, m.n) // old -> new
	oi := 0
	for i := 0; i < m.n; i++ {
		if dropRow[i] {
			rowMap[i] = -1
			continue
		}
		rowMap[i] = oi
		oi++
	}
	colMap := make([]int, m.n)
	oj := 0
	for j := 0; j < m.n; j++ {
		if dropCol[j] {
			colMap[j] = -1
			continue
		}
		colMap[j] = oj
		oj++
	}
	out := New(m.n - len(rows))
	for i, r := range m.rows {
		ni := rowMap[i]
		if ni < 0 {
			continue
		}
		for j, v := range r {
			if nj := colMap[j]; nj >= 0 {
				out.rows[ni][nj] = v
			}
		}
	}
	return out
}

// String renders the nonzero pattern for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("sparse %d×%d, %d nnz\n", m.n, m.n, m.NNZ())
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if v, ok := m.rows[i][j]; ok {
				s += fmt.Sprintf("  (%d,%d) = %v\n", i, j, v)
			}
		}
	}
	return s
}

// LU holds a sparse factorization with full (row and column) pivoting:
// P·A·Q = L·U, recorded as the per-step pivot positions, the eliminated
// pivot rows (the rows of U in original column indices) and the
// elimination multipliers.
//
// The U rows are stored as column-sorted slices so that back-substitution
// accumulates in a fixed order: repeated factorizations of the same
// matrix yield bit-identical Solve results, which the parallel batched
// evaluation layer relies on.
type LU struct {
	n       int
	pivRow  []int         // row chosen at step k
	pivCol  []int         // column chosen at step k
	pivVal  []complex128  // pivot value at step k
	urows   [][]urowEntry // pivot row contents at elimination time (incl. pivot), sorted by column
	mults   [][]multEntry // multipliers applied at step k
	detSign int
}

type multEntry struct {
	row  int
	mult complex128
}

type urowEntry struct {
	col int
	val complex128
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

// Det computes the determinant by Markowitz-pivoted elimination with the
// default stability threshold. The receiver is not modified. A singular
// matrix yields exactly zero.
func (m *Matrix) Det() xmath.XComplex {
	f, err := m.Factor(DefaultThreshold)
	if err != nil {
		return xmath.XComplex{}
	}
	return f.Det()
}

// Solve factors the matrix and solves A·x = b.
func (m *Matrix) Solve(b []complex128) ([]complex128, error) {
	f, err := m.Factor(DefaultThreshold)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Factor runs Markowitz-pivoted Gaussian elimination. At each step the
// pivot with minimal Markowitz count (r−1)(c−1) is chosen among entries
// passing |a| ≥ threshold·max|column|; ties break toward larger
// magnitude, then toward the smallest (row, column) pair, so the chosen
// pivot sequence — and with it every rounded intermediate — is a pure
// function of the matrix values. The receiver is not modified.
func (m *Matrix) Factor(threshold float64) (*LU, error) {
	return m.Clone().FactorInPlace(threshold)
}

// FactorInPlace is Factor without the defensive copy: it consumes the
// receiver's contents (which are undefined afterwards). Use it on scratch
// matrices that are re-assembled before every factorization.
func (w *Matrix) FactorInPlace(threshold float64) (*LU, error) {
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
				better := cost < bestCost ||
					(cost == bestCost && (a > bestAbs ||
						(a == bestAbs && (bi < 0 || i < bi || (i == bi && j < bj)))))
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
	if parity(f.pivRow)*parity(f.pivCol) < 0 {
		f.detSign = -1
	}
	return f, nil
}

// Det returns the determinant as an extended-range complex number: the
// signed product of the pivots.
func (f *LU) Det() xmath.XComplex {
	det := xmath.FromComplex(complex(float64(f.detSign), 0))
	for _, p := range f.pivVal {
		det = det.MulComplex(p)
	}
	return det
}

// Solve solves A·x = b by replaying the elimination on the right-hand
// side (forward pass) and back-substituting through the stored U rows.
func (f *LU) Solve(b []complex128) ([]complex128, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("sparse: rhs length %d, want %d", len(b), f.n)
	}
	y := make([]complex128, f.n)
	copy(y, b)
	for k := range f.pivRow {
		pv := y[f.pivRow[k]]
		if pv == 0 {
			continue
		}
		for _, me := range f.mults[k] {
			y[me.row] -= me.mult * pv
		}
	}
	x := make([]complex128, f.n)
	for k := f.n - 1; k >= 0; k-- {
		sum := y[f.pivRow[k]]
		for _, e := range f.urows[k] {
			if e.col == f.pivCol[k] {
				continue
			}
			sum -= e.val * x[e.col]
		}
		x[f.pivCol[k]] = sum / f.pivVal[k]
	}
	return x, nil
}

// SolveInto solves A·x = b into dst using ws's forward-substitution
// scratch, allocating nothing once ws has been sized for f.n (any
// workspace works; it need not be the one f aliases). dst and b may be
// the same slice.
func (f *LU) SolveInto(dst, b []complex128, ws *Workspace) error {
	if len(b) != f.n || len(dst) != f.n {
		return fmt.Errorf("sparse: rhs/dst length %d/%d, want %d", len(b), len(dst), f.n)
	}
	ws.ensure(f.n)
	y := ws.fwd
	copy(y, b)
	for k := range f.pivRow {
		pv := y[f.pivRow[k]]
		if pv == 0 {
			continue
		}
		for _, me := range f.mults[k] {
			y[me.row] -= me.mult * pv
		}
	}
	for k := f.n - 1; k >= 0; k-- {
		sum := y[f.pivRow[k]]
		for _, e := range f.urows[k] {
			if e.col == f.pivCol[k] {
				continue
			}
			sum -= e.val * dst[e.col]
		}
		dst[f.pivCol[k]] = sum / f.pivVal[k]
	}
	return nil
}

// parity returns the sign (+1/−1) of the permutation given as a sequence
// of images, via cycle counting.
func parity(perm []int) int {
	n := len(perm)
	seen := make([]bool, n)
	sign := 1
	for i := 0; i < n; i++ {
		if seen[i] {
			continue
		}
		length := 0
		j := i
		for !seen[j] {
			seen[j] = true
			j = perm[j]
			length++
		}
		if length%2 == 0 {
			sign = -sign
		}
	}
	return sign
}
