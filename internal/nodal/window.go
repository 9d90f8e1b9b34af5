package nodal

import (
	"math"
	"sync"

	"repro/internal/interp"
)

// Structural degree windows.
//
// Every entry of Y(s) = G + s·C is a polynomial of degree at most one in
// s, so each term of a determinant expansion — one entry per row, one
// per column — has an s-degree between the sum of its entries' lowest
// degrees and the sum of their highest. The determinant's nonzero
// coefficients therefore lie inside [lo, hi], where hi is a maximum-
// weight perfect matching of the projected pattern (weight 1 for an
// entry with a capacitance stamp, 0 for conductance/VCCS only, empty
// entries forbidden) and lo is a minimum-weight one (weight 0 for an
// entry with a conductance stamp, 1 for capacitance only). Both are
// bounds by construction: they need no genericity assumption, because a
// determinant's degree never exceeds its best term's. A pattern with no
// perfect matching is structurally singular and its polynomial is
// identically zero (an empty window).

// Entry kinds of the projected pattern, as bits.
const (
	entryG = 1 << iota // some conductance or VCCS stamp lands here
	entryC             // some capacitance stamp lands here
)

// matcher is the reusable scratch of structuralWindow: the projected
// pattern in compressed rows (duplicates merged, kinds or'ed) and the
// O(d) state of the shortest-augmenting-path assignment solver. Nothing
// is dense: its size is O(d + nnz).
type matcher struct {
	start []int32 // row r's entries are cols/kind[start[r]:start[r+1]]
	cols  []int32
	kind  []uint8
	at    []int32 // per column: index of its entry in the row being merged

	u, v, minv []int32
	p, q, way  []int32
	used       []bool
	reached    []int32
}

// windows is the one matcher of the process. A pattern's window is
// computed once, so a single scratch behind a lock serves every system,
// and a new system's matchings start from buffers earlier ones grew.
// Only buffers survive a matching; a matcher grown past
// maxMatcherEntries by one large pattern is dropped after it.
var windows struct {
	sync.Mutex
	matcher
}

// maxMatcherEntries bounds the pattern entries the shared matcher keeps
// room for between matchings.
const maxMatcherEntries = 1 << 16

// grow returns s resized to n, reallocating only when capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// structuralWindow returns the structural degree window of pat's
// determinant, before any clip to the order bound.
func (m *matcher) structuralWindow(pat *pattern) interp.DegreeWindow {
	d := pat.proj.dim
	if d == 0 {
		return interp.DegreeWindow{Lo: 0, Hi: 0} // det of the empty matrix is 1
	}
	m.load(d, pat)
	minNotC, ok := m.assign(d, entryC)
	if !ok {
		return interp.DegreeWindow{Lo: 1, Hi: 0}
	}
	minNotG, _ := m.assign(d, entryG)
	return interp.DegreeWindow{Lo: minNotG, Hi: d - minNotC}
}

// load builds the compressed rows of pat's projected pattern.
func (m *matcher) load(d int, pat *pattern) {
	nnz := len(pat.pos)
	m.start = grow(m.start, d+1)
	clear(m.start)
	for _, ij := range pat.pos {
		m.start[ij[0]+1]++
	}
	for r := 1; r <= d; r++ {
		m.start[r] += m.start[r-1]
	}
	// Scatter stamps into their rows (at doubles as each row's cursor).
	m.cols = grow(m.cols, nnz)
	m.kind = grow(m.kind, nnz)
	m.at = grow(m.at, d)
	copy(m.at, m.start[:d])
	for k, ij := range pat.pos {
		slot := m.at[ij[0]]
		m.at[ij[0]]++
		m.cols[slot] = ij[1]
		m.kind[slot] = entryG
		if k >= pat.ng {
			m.kind[slot] = entryC
		}
	}
	// Merge repeated columns within each row, compacting in place: a
	// column's earlier entry in the current row sits at or after the
	// row's compacted start, entries of earlier rows before it.
	for c := range m.at {
		m.at[c] = -1
	}
	out := int32(0)
	lo := int32(0)
	for r := 0; r < d; r++ {
		hi := m.start[r+1]
		rowStart := out
		for k := lo; k < hi; k++ {
			c := m.cols[k]
			if e := m.at[c]; e >= rowStart {
				m.kind[e] |= m.kind[k]
				continue
			}
			m.at[c] = out
			m.cols[out], m.kind[out] = c, m.kind[k]
			out++
		}
		lo = hi
		m.start[r] = rowStart
	}
	m.start[d] = out
}

// assign solves the assignment problem on the loaded pattern with cost
// 0 for an entry whose kind has the want bit and 1 otherwise, and
// returns the minimum total cost of a perfect matching; ok is false
// when the pattern has none. It is the Hungarian method in its
// shortest-augmenting-path form: a greedy matching of cost-0 entries
// (tight under zero potentials) seeds it, then each unmatched row runs
// a Dijkstra search over reduced costs with dual potentials u, v. The
// search relaxes only stored entries, scans only the columns it has
// reached, and prefers a free column among equally cheap ones, so its
// cost follows the explored part of the pattern, not d². Rows and
// columns are 1-based inside; column 0 is the virtual start of each
// augmenting path.
func (m *matcher) assign(d int, want uint8) (int, bool) {
	const inf = math.MaxInt32
	n := d + 1
	m.u, m.v = grow(m.u, n), grow(m.v, n)
	m.p, m.q, m.way = grow(m.p, n), grow(m.q, n), grow(m.way, n)
	m.minv, m.used = grow(m.minv, n), grow(m.used, n)
	u, v, p, q, way, minv, used := m.u, m.v, m.p, m.q, m.way, m.minv, m.used
	clear(u)
	clear(v)
	clear(p)
	clear(q)
	clear(used)
	for j := range minv {
		minv[j] = inf
	}
	cost := func(k int32) int32 {
		if m.kind[k]&want != 0 {
			return 0
		}
		return 1
	}
	// Greedy seed: q maps a seeded row to its column.
	for i := int32(1); i <= int32(d); i++ {
		for k := m.start[i-1]; k < m.start[i]; k++ {
			if j := m.cols[k] + 1; p[j] == 0 && cost(k) == 0 {
				p[j], q[i] = i, j
				break
			}
		}
	}
	for i := int32(1); i <= int32(d); i++ {
		if q[i] != 0 {
			continue
		}
		p[0] = i
		j0 := int32(0)
		reached := append(m.reached[:0], 0)
		for p[j0] != 0 {
			used[j0] = true
			i0 := p[j0]
			for k := m.start[i0-1]; k < m.start[i0]; k++ {
				j := m.cols[k] + 1
				if used[j] {
					continue
				}
				if minv[j] == inf {
					reached = append(reached, j)
				}
				if cur := cost(k) - u[i0] - v[j]; cur < minv[j] {
					minv[j], way[j] = cur, j0
				}
			}
			delta, j1 := int32(inf), int32(-1)
			for _, j := range reached {
				if !used[j] && (j1 < 0 || minv[j] < delta || (minv[j] == delta && p[j] == 0 && p[j1] != 0)) {
					delta, j1 = minv[j], j
				}
			}
			if j1 < 0 {
				return 0, false // no augmenting path: no perfect matching
			}
			for _, j := range reached {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
		for _, j := range reached {
			minv[j], used[j] = inf, false
		}
		m.reached = reached
	}
	total := 0
	for j := int32(1); j <= int32(d); j++ {
		i := p[j]
		for k := m.start[i-1]; k < m.start[i]; k++ {
			if m.cols[k]+1 == j {
				total += int(cost(k))
				break
			}
		}
	}
	return total, true
}
