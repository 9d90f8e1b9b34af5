package symbolic

import (
	"container/heap"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/circuit"
	"repro/internal/poly"
	"repro/internal/xmath"
)

// This file implements true Simplification During Generation: lazy
// enumeration of determinant terms in strictly non-increasing order of
// magnitude (refs. [2]-[4] of the paper), so that generation can stop as
// soon as eq. (3) is met — without ever building the full expression.
// This is the algorithm that *requires* the numerical reference up
// front: its stopping rule compares the partial sum against the total
// coefficient magnitude, which is unknowable from the generated prefix.
//
// The search runs best-first over partial permutation assignments of
// matrix rows to columns. The priority of a partial product is an
// admissible upper bound: |partial| × Π over unassigned rows of the
// row's largest entry magnitude. A completed term therefore pops only
// when nothing on the frontier can beat it, which yields the global
// magnitude order.

// TermStream lazily yields determinant terms in non-increasing |value|
// order.
type TermStream struct {
	n         int
	m         [][]entry
	suffixMax []xmath.XFloat // Π of row maxima from row r to the end
	frontier  nodeHeap
	exhausted bool
}

// node is a partial (or complete) assignment of rows 0..row-1.
type node struct {
	row    int
	used   uint64 // bitmask of assigned columns
	sign   int
	mag    xmath.XFloat // |Π entry values| so far
	bound  xmath.XFloat // mag × suffixMax[row]
	names  []string
	sPower int
}

type nodeHeap []*node

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].bound.CmpAbs(h[j].bound) > 0 }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// newTermStream builds a stream over the determinant of the symbolic
// matrix. Matrices beyond 64 rows are rejected (column bitmask).
func newTermStream(m [][]entry) (*TermStream, error) {
	n := len(m)
	if n > 64 {
		return nil, fmt.Errorf("symbolic: SDG stream supports up to 64 rows, got %d", n)
	}
	ts := &TermStream{n: n, m: m}
	ts.suffixMax = make([]xmath.XFloat, n+1)
	ts.suffixMax[n] = xmath.FromFloat(1)
	for r := n - 1; r >= 0; r-- {
		var rowMax xmath.XFloat
		for _, cell := range m[r] {
			for _, f := range cell {
				v := xmath.FromFloat(f.val).Abs()
				if v.CmpAbs(rowMax) > 0 {
					rowMax = v
				}
			}
		}
		if rowMax.Zero() {
			// A structurally empty row: determinant is zero.
			ts.exhausted = true
			return ts, nil
		}
		ts.suffixMax[r] = rowMax.Mul(ts.suffixMax[r+1])
	}
	root := &node{row: 0, sign: 1, mag: xmath.FromFloat(1), bound: ts.suffixMax[0]}
	heap.Push(&ts.frontier, root)
	return ts, nil
}

// Next returns the next term in non-increasing magnitude order. ok is
// false when the expansion is exhausted. Terms are raw permutation
// products: identical symbol multisets from different permutations
// appear as separate terms (combine them downstream if needed).
func (ts *TermStream) Next() (Term, bool) {
	for !ts.exhausted && ts.frontier.Len() > 0 {
		nd := heap.Pop(&ts.frontier).(*node)
		if nd.row == ts.n {
			names := append([]string(nil), nd.names...)
			sort.Strings(names)
			v := nd.mag
			if nd.sign < 0 {
				v = v.Neg()
			}
			return Term{Coeff: nd.sign, Symbols: names, SPower: nd.sPower, Value: v}, true
		}
		for c := 0; c < ts.n; c++ {
			if nd.used&(1<<uint(c)) != 0 {
				continue
			}
			cell := ts.m[nd.row][c]
			if len(cell) == 0 {
				continue
			}
			// Permutation parity: assigning column c after the used set
			// adds one inversion per used column greater than c.
			inv := bits.OnesCount64(nd.used >> uint(c+1))
			colSign := 1
			if inv%2 != 0 {
				colSign = -1
			}
			for _, f := range cell {
				child := &node{
					row:    nd.row + 1,
					used:   nd.used | 1<<uint(c),
					sign:   nd.sign * colSign * f.sign,
					mag:    nd.mag.MulFloat(f.val),
					names:  append(append([]string(nil), nd.names...), f.name),
					sPower: nd.sPower,
				}
				if f.cap {
					child.sPower++
				}
				child.bound = child.mag.Mul(ts.suffixMax[child.row])
				heap.Push(&ts.frontier, child)
			}
		}
	}
	return Term{}, false
}

// StreamVoltageGainDen returns a term stream for the denominator of
// V(out)/V(in) — the cofactor C_in,in (see VoltageGain). The sign of the
// cofactor is +1 (diagonal), so terms come out correctly signed.
func StreamVoltageGainDen(c *circuit.Circuit, in string) (*TermStream, error) {
	m, err := buildMatrix(c)
	if err != nil {
		return nil, err
	}
	i := c.NodeIndex(in)
	if i < 0 {
		return nil, fmt.Errorf("symbolic: bad node %q", in)
	}
	return newTermStream(minorOf(m, i, i))
}

// SDGResult reports the outcome of reference-controlled generation for
// one coefficient.
type SDGResult struct {
	// Kept are the generated terms (combined by symbol multiset),
	// largest first.
	Kept []Term
	// Generated counts raw permutation terms consumed for this
	// coefficient.
	Generated int
	// AchievedError is |ref − Σkept|/|ref| when the coefficient met its
	// criterion.
	AchievedError float64
	// Met reports whether eq. (3) was satisfied.
	Met bool
}

// RunSDG drives the stream until every coefficient with a nonzero
// reference satisfies eq. (3):
//
//	|h_k(x0) − Σ generated| ≤ ε·|h_k(x0)|
//
// or maxTerms raw terms have been generated. The returned map is keyed
// by s-power. Coefficients whose reference is zero are skipped (their
// terms are consumed but not targeted).
func RunSDG(ts *TermStream, refs poly.XPoly, eps float64, maxTerms int) (map[int]*SDGResult, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("symbolic: ε must be positive")
	}
	if maxTerms <= 0 {
		maxTerms = 1 << 20
	}
	type acc struct {
		sum      xmath.XFloat
		bySymbol map[string]*Term
		res      *SDGResult
	}
	accs := map[int]*acc{}
	need := 0
	for k, r := range refs {
		if !r.Zero() {
			accs[k] = &acc{bySymbol: map[string]*Term{}, res: &SDGResult{}}
			need++
		}
	}
	results := map[int]*SDGResult{}
	for k, a := range accs {
		results[k] = a.res
	}
	if need == 0 {
		return results, nil
	}
	met := 0
	for i := 0; i < maxTerms && met < need; i++ {
		t, ok := ts.Next()
		if !ok {
			break
		}
		a, wanted := accs[t.SPower]
		if !wanted || a.res.Met {
			continue
		}
		a.res.Generated++
		a.sum = a.sum.Add(t.Value)
		key := keyOf(t.Symbols)
		if prev, dup := a.bySymbol[key]; dup {
			prev.Coeff += t.Coeff
			prev.Value = prev.Value.Add(t.Value)
		} else {
			cp := t
			a.bySymbol[key] = &cp
		}
		ref := refs[t.SPower]
		errNow := ref.Sub(a.sum).Abs().Div(ref.Abs()).Float64()
		if errNow <= eps {
			a.res.Met = true
			a.res.AchievedError = errNow
			met++
		}
	}
	// Assemble combined, ordered term lists (dropping cancelled pairs).
	for _, a := range accs {
		for _, t := range a.bySymbol {
			if t.Coeff != 0 {
				a.res.Kept = append(a.res.Kept, *t)
			}
		}
		sort.Slice(a.res.Kept, func(i, j int) bool {
			return a.res.Kept[i].Value.CmpAbs(a.res.Kept[j].Value) > 0
		})
	}
	return results, nil
}

func keyOf(symbols []string) string {
	s := ""
	for i, n := range symbols {
		if i > 0 {
			s += "\x00"
		}
		s += n
	}
	return s
}
