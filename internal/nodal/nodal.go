// Package nodal implements the node-admittance formulation used by the
// interpolation pipeline.
//
// It accepts the admittance-only element subset (G, R, C, VCCS): in that
// class every entry of the grounded node-admittance matrix Y(s) has the
// form Σg + s·Σc, every determinant term is a product of exactly n
// admittance factors, and the conductance/frequency scaling law of the
// paper's eq. (11) — p'_i = p_i·f^i·g^(M−i) — holds exactly with M equal
// to the matrix order. Network functions are ratios of signed cofactors
// (P. M. Lin, Symbolic Network Analysis): both numerator and denominator
// are determinants of admittance matrices and interpolate under the same
// law.
package nodal

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"repro/internal/circuit"
	"repro/internal/interp"
	"repro/internal/sparse"
	"repro/internal/xmath"
)

// stamp is one (row, col, value) contribution.
type stamp struct {
	i, j int
	v    float64
}

// projection maps the full n×n stamp space onto a derived determinant's
// matrix: each source row/column is sent to a target index (−1 = deleted;
// two sources sent to the same target merge by accumulation), and sign
// carries the cofactor sign of the derived determinant. It lets every
// derived matrix — cofactors, shorted-node determinants, merged-row
// cofactors — be assembled directly from the stamp lists in one fixed
// order, without building the full matrix first.
type projection struct {
	dim  int
	row  []int
	col  []int
	sign float64
}

func dropMap(n, d int) []int {
	m := make([]int, n)
	for i := range m {
		switch {
		case i == d:
			m[i] = -1
		case i > d:
			m[i] = i - 1
		default:
			m[i] = i
		}
	}
	return m
}

func mergeMap(n, a, b int) []int {
	m := dropMap(n, b)
	m[b] = m[a]
	return m
}

func identityMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// identityProjection is the full determinant det Y.
func identityProjection(n int) projection {
	return projection{dim: n, row: identityMap(n), col: identityMap(n), sign: 1}
}

// cofactorProjection is the signed first-order cofactor C_rc.
func cofactorProjection(n, r, c int) projection {
	return projection{dim: n - 1, row: dropMap(n, r), col: dropMap(n, c), sign: cofactorSign(r, c)}
}

// shortedProjection merges node b into node a (rows and columns summed):
// the determinant of the circuit with the two nodes shorted.
func shortedProjection(n, a, b int) projection {
	return projection{dim: n - 1, row: mergeMap(n, a, b), col: mergeMap(n, a, b), sign: 1}
}

// mergedRowsProjection adds row b into row a, deletes row b and column
// c: the single-determinant form of C_ac − C_bc, with sign (−1)^(b+c+1)
// (see CofactorMergedRows).
func mergedRowsProjection(n, a, b, c int) projection {
	sign := 1.0
	if (b+c+1)%2 != 0 {
		sign = -1
	}
	return projection{dim: n - 1, row: mergeMap(n, a, b), col: dropMap(n, c), sign: sign}
}

// pattern pairs a projection with the shared pivot-order plan for its
// sparsity pattern. The plan is primed — and compiled over the
// projection's stamp positions — by the first successful factorization
// anywhere in a run, and replayed read-only at every later point: across
// all points of a frame and all frames of a Generate run, and across the
// systems of a sweep that adopt the pattern. The pattern also owns the
// free list of evaluation scratches for its dimension, so steady-state
// evaluation reuses factorization workspaces and RHS vectors instead of
// allocating per point.
type pattern struct {
	proj projection
	plan sparse.SharedPlan

	scratchMu sync.Mutex
	free      []*evalScratch
}

// evalScratch is the per-worker reusable evaluation state of one
// pattern: the factorization workspace (assembly values and LU) and the
// Cramer RHS/solution vectors, sized for the pattern's dimension.
type evalScratch struct {
	ws  sparse.Workspace
	rhs []complex128
	sol []complex128
}

// get pops a scratch from the pattern's free list, building one sized
// for the pattern when the list is empty. The list is a mutex-guarded
// stack rather than a sync.Pool on purpose: a sync.Pool may be emptied
// by any GC cycle, which would make the steady state's allocation count
// nondeterministic, while the stack guarantees zero allocations once one
// scratch per concurrent evaluator exists.
func (pat *pattern) get() *evalScratch {
	pat.scratchMu.Lock()
	if n := len(pat.free); n > 0 {
		sc := pat.free[n-1]
		pat.free = pat.free[:n-1]
		pat.scratchMu.Unlock()
		return sc
	}
	pat.scratchMu.Unlock()
	dim := pat.proj.dim
	return &evalScratch{
		rhs: make([]complex128, dim),
		sol: make([]complex128, dim),
	}
}

// put returns a scratch to the free list.
func (pat *pattern) put(sc *evalScratch) {
	pat.scratchMu.Lock()
	pat.free = append(pat.free, sc)
	pat.scratchMu.Unlock()
}

// assembleInto assembles the projected scaled matrix into dst. Stamps
// are applied in a fixed order, so the assembled values are identical on
// every call with the same arguments, and every call adds the same
// positions — the order the compiled plan's value slots follow.
func (sys *System) assembleInto(dst *sparse.Workspace, pr *projection, s complex128, fscale, gscale float64) {
	for _, st := range sys.gStamps {
		i, j := pr.row[st.i], pr.col[st.j]
		if i >= 0 && j >= 0 {
			dst.Add(i, j, complex(st.v*gscale, 0))
		}
	}
	sc := s * complex(fscale, 0)
	for _, st := range sys.cStamps {
		i, j := pr.row[st.i], pr.col[st.j]
		if i >= 0 && j >= 0 {
			dst.Add(i, j, sc*complex(st.v, 0))
		}
	}
}

// factorAt assembles the pattern's matrix at one point into sc and
// factors it under the pattern's shared plan — once the plan is primed,
// a compiled replay that allocates nothing. On a plan miss (the recorded
// pivot order does not fit this matrix's values) it re-assembles and
// runs a private full factorization — the shared plan itself is never
// mutated, so the value at a point never depends on which points were
// evaluated before it (beyond the one-time priming).
func (sys *System) factorAt(pat *pattern, sc *evalScratch, s complex128, fscale, gscale float64) (*sparse.LU, error) {
	sc.ws.Begin(&pat.plan, pat.proj.dim)
	sys.assembleInto(&sc.ws, &pat.proj, s, fscale, gscale)
	lu, err := sc.ws.Factor()
	if err == sparse.ErrPlanMiss {
		sc.ws.Begin(nil, pat.proj.dim)
		sys.assembleInto(&sc.ws, &pat.proj, s, fscale, gscale)
		lu, err = sc.ws.Factor()
	}
	return lu, err
}

// detAt evaluates the pattern's signed determinant at one point, zero
// when singular.
func (sys *System) detAt(pat *pattern, sc *evalScratch, s complex128, fscale, gscale float64) xmath.XComplex {
	lu, err := sys.factorAt(pat, sc, s, fscale, gscale)
	if err != nil {
		return xmath.XComplex{}
	}
	det := lu.Det()
	if pat.proj.sign < 0 {
		det = det.Neg()
	}
	return det
}

// System is the assembled grounded node-admittance structure: separate
// conductance and capacitance stamp lists so the matrix can be evaluated
// at any complex frequency with any pair of scale factors. Evaluation is
// safe for concurrent use: the pattern cache is mutex-guarded and each
// evaluation assembles into its own scratch matrix.
type System struct {
	n       int
	gStamps []stamp
	cStamps []stamp
	numCaps int
	// patterns caches a projection plus shared pivot-order plan per
	// derived determinant. Keys: {-1,-1} for the full determinant, {r,c}
	// for first-order cofactors, and synthetic keys for merged/shorted
	// variants.
	mu       sync.Mutex
	patterns map[[2]int]*pattern
}

// AdoptPatterns shares the donor system's pattern cache — projections
// plus primed pivot-order plans — with sys, and reports whether the two
// systems are structurally identical (same order and the same stamp
// positions; values may differ). On a mismatch nothing is adopted: a
// compiled plan maps the k-th stamp to a fixed value slot, so it fits
// only systems that add the same positions in the same order.
//
// The adoption is what makes a batch sweep amortize factorization
// planning: every point of a topology re-uses the plans the first point
// primed (and contributes any new ones). The map is shared by reference,
// so sys and prev must not Formulate concurrently afterwards; concurrent
// evaluation stays safe (plans have their own locks).
func (sys *System) AdoptPatterns(prev *System) bool {
	if prev == nil || sys.n != prev.n ||
		!sameStampPositions(sys.gStamps, prev.gStamps) ||
		!sameStampPositions(sys.cStamps, prev.cStamps) {
		return false
	}
	prev.mu.Lock()
	if prev.patterns == nil {
		prev.patterns = make(map[[2]int]*pattern)
	}
	shared := prev.patterns
	prev.mu.Unlock()
	sys.mu.Lock()
	sys.patterns = shared
	sys.mu.Unlock()
	return true
}

// sameStampPositions reports whether two stamp lists touch the same
// matrix positions in the same order (values ignored).
func sameStampPositions(a, b []stamp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].i != b[i].i || a[i].j != b[i].j {
			return false
		}
	}
	return true
}

// pattern returns the cached pattern for key, creating it with mk on
// first use.
func (sys *System) pattern(key [2]int, mk func() projection) *pattern {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if sys.patterns == nil {
		sys.patterns = make(map[[2]int]*pattern)
	}
	p, ok := sys.patterns[key]
	if !ok {
		p = &pattern{proj: mk()}
		sys.patterns[key] = p
	}
	return p
}

// evaluator builds an interp.Evaluator over one cached pattern: the
// serial Eval evaluates with a pooled scratch (allocation-free in the
// steady state), while EvalBatch fans the frame's points out over a
// worker pool with one pooled scratch per worker — returned to the
// pattern's free list when the batch drains — serially priming the
// shared pivot plan first so serial and parallel runs are bit-identical.
func (sys *System) evaluator(name string, m int, key [2]int, mk func() projection) interp.Evaluator {
	pat := sys.pattern(key, mk)
	return interp.Evaluator{
		Name: name, M: m, OrderBound: sys.orderBound(m),
		Eval: func(s complex128, f, g float64) xmath.XComplex {
			sc := pat.get()
			det := sys.detAt(pat, sc, s, f, g)
			pat.put(sc)
			return det
		},
		EvalBatch: func(ctx context.Context, points []complex128, f, g float64, workers int) []xmath.XComplex {
			var mu sync.Mutex
			var acquired []*evalScratch
			// RunBatch returns only after every worker goroutine has
			// exited, so the scratches are idle when released.
			defer func() {
				for _, sc := range acquired {
					pat.put(sc)
				}
			}()
			return interp.RunBatch(ctx, points, workers, pat.plan.Primed, func() func(complex128) xmath.XComplex {
				sc := pat.get()
				mu.Lock()
				acquired = append(acquired, sc)
				mu.Unlock()
				return func(s complex128) xmath.XComplex {
					return sys.detAt(pat, sc, s, f, g)
				}
			})
		},
	}
}

// jointCramer builds a TransferFunction.EvalBoth implementation (plus
// its BothReady gate) from the adjugate identity adj(Y) = det Y·Y⁻¹,
// whose entries are the signed cofactors adj(Y)_{j,i} = C_ij: one LU of
// the full matrix plus one solve of Y·x = e_in yields every C_in,j as
// det·x[j], so both polynomials of a cofactor-ratio network function
// come out of a single factorization. pick maps (det, x) to the
// (numerator, denominator) pair of the particular function.
//
// The joint values equal the independent cofactor determinants
// mathematically but not bitwise (different elimination orderings), so
// callers that need bit-reproducibility must stick to one mode — which
// core.GenerateTransferFunction's cache does.
func (sys *System) jointCramer(in int, pick func(det xmath.XComplex, x []complex128) (num, den xmath.XComplex)) (func(s complex128, fscale, gscale float64) (num, den xmath.XComplex), func() bool) {
	pat := sys.detPattern()
	evalBoth := func(s complex128, fscale, gscale float64) (num, den xmath.XComplex) {
		sc := pat.get()
		defer pat.put(sc)
		lu, err := sys.factorAt(pat, sc, s, fscale, gscale)
		if err != nil {
			return xmath.XComplex{}, xmath.XComplex{}
		}
		b := sc.rhs
		for i := range b {
			b[i] = 0
		}
		b[in] = 1
		if err := lu.SolveInto(sc.sol, b, &sc.ws); err != nil {
			return xmath.XComplex{}, xmath.XComplex{}
		}
		return pick(lu.Det(), sc.sol)
	}
	return evalBoth, pat.plan.Primed
}

// cramerValue returns det·x[j] = C_in,j, zero when the solve produced a
// non-finite entry (structurally singular point).
func cramerValue(det xmath.XComplex, x []complex128, j int) xmath.XComplex {
	if cmplx.IsNaN(x[j]) || cmplx.IsInf(x[j]) {
		return xmath.XComplex{}
	}
	return det.MulComplex(x[j])
}

// Build assembles the system from a circuit. It returns an error if the
// circuit contains elements outside the admittance subset or fails
// validation.
func Build(c *circuit.Circuit) (*System, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if !c.AdmittanceOnly() {
		return nil, fmt.Errorf("nodal: circuit %q contains non-admittance elements; use the MNA path for analysis or reduce sources to Norton equivalents", c.Name)
	}
	sys := &System{n: c.NumNodes(), numCaps: c.NumCapacitors()}
	for _, e := range c.Elements() {
		p, n := c.NodeIndex(e.P), c.NodeIndex(e.N)
		switch e.Kind {
		case circuit.Conductance:
			sys.stampAdmittance(&sys.gStamps, p, n, e.Value)
		case circuit.Resistor:
			// Guard the reciprocal: a subnormal resistance stamps ±Inf and
			// poisons every solve downstream.
			g := 1 / e.Value
			if math.IsInf(g, 0) || math.IsNaN(g) {
				return nil, fmt.Errorf("nodal: resistor %q value %g has no finite conductance", e.Name, e.Value)
			}
			sys.stampAdmittance(&sys.gStamps, p, n, g)
		case circuit.Capacitor:
			sys.stampAdmittance(&sys.cStamps, p, n, e.Value)
		case circuit.VCCS:
			cp, cn := c.NodeIndex(e.CP), c.NodeIndex(e.CN)
			sys.stampVCCS(p, n, cp, cn, e.Value)
		}
	}
	return sys, nil
}

// stampAdmittance adds the two-terminal admittance pattern, skipping
// ground (-1) rows/columns.
func (sys *System) stampAdmittance(list *[]stamp, p, n int, v float64) {
	if p >= 0 {
		*list = append(*list, stamp{p, p, v})
	}
	if n >= 0 {
		*list = append(*list, stamp{n, n, v})
	}
	if p >= 0 && n >= 0 {
		*list = append(*list, stamp{p, n, -v}, stamp{n, p, -v})
	}
}

// stampVCCS adds the transconductance pattern: current gm·(v_cp − v_cn)
// flows from node p through the source into node n.
func (sys *System) stampVCCS(p, n, cp, cn int, gm float64) {
	add := func(i, j int, v float64) {
		if i >= 0 && j >= 0 {
			sys.gStamps = append(sys.gStamps, stamp{i, j, v})
		}
	}
	add(p, cp, gm)
	add(p, cn, -gm)
	add(n, cp, -gm)
	add(n, cn, gm)
}

// N returns the matrix order (number of non-ground nodes).
func (sys *System) N() int { return sys.n }

// NumCapacitors returns the capacitor count (the order upper bound).
func (sys *System) NumCapacitors() int { return sys.numCaps }

// MatrixAt assembles Y(s) with every conductance multiplied by gscale and
// every capacitance by fscale:
//
//	Y_ij = gscale·G_ij + s·fscale·C_ij
//
// Evaluating the scaled matrix at unit-circle points makes the
// interpolated coefficients p'_i = p_i·fscale^i·gscale^(M−i) (eq. 11).
func (sys *System) MatrixAt(s complex128, fscale, gscale float64) *sparse.Matrix {
	m := sparse.New(sys.n)
	for _, st := range sys.gStamps {
		m.Add(st.i, st.j, complex(st.v*gscale, 0))
	}
	sc := s * complex(fscale, 0)
	for _, st := range sys.cStamps {
		m.Add(st.i, st.j, sc*complex(st.v, 0))
	}
	return m
}

// cofactorSign returns (−1)^(r+c).
func cofactorSign(r, c int) float64 {
	if (r+c)%2 == 0 {
		return 1
	}
	return -1
}

// Cofactor evaluates the signed first-order cofactor
// C_rc(s) = (−1)^(r+c)·det(Y(s) with row r and column c deleted)
// of the scaled matrix.
func (sys *System) Cofactor(r, c int, s complex128, fscale, gscale float64) xmath.XComplex {
	return sys.detPooled(sys.cofactorPattern(r, c), s, fscale, gscale)
}

// detPooled is detAt through the pattern's scratch pool — the shared
// path of the public single-point evaluation methods.
func (sys *System) detPooled(pat *pattern, s complex128, fscale, gscale float64) xmath.XComplex {
	sc := pat.get()
	det := sys.detAt(pat, sc, s, fscale, gscale)
	pat.put(sc)
	return det
}

func (sys *System) cofactorPattern(r, c int) *pattern {
	return sys.pattern([2]int{r, c}, func() projection { return cofactorProjection(sys.n, r, c) })
}

// Det evaluates det Y(s) of the scaled matrix.
func (sys *System) Det(s complex128, fscale, gscale float64) xmath.XComplex {
	return sys.detPooled(sys.detPattern(), s, fscale, gscale)
}

func (sys *System) detPattern() *pattern {
	return sys.pattern([2]int{-1, -1}, func() projection { return identityProjection(sys.n) })
}

// DetShorted evaluates det of Y(s) with node b merged into node a (rows
// and columns summed) — the circuit with the two nodes shorted. By
// multilinearity this single determinant equals the four-cofactor sum
// C_aa + C_bb − C_ab − C_ba, but without the ~6-digit cancellation the
// explicit sum suffers on weakly-coupled input pairs.
func (sys *System) DetShorted(a, b int, s complex128, fscale, gscale float64) xmath.XComplex {
	return sys.detPooled(sys.shortedPattern(a, b), s, fscale, gscale)
}

func (sys *System) shortedPattern(a, b int) *pattern {
	return sys.pattern([2]int{-2 - a, -2 - b}, func() projection { return shortedProjection(sys.n, a, b) })
}

// CofactorMergedRows evaluates the single-determinant form of
// C_a,c − C_b,c: det of Y(s) with row b added into row a, row b and
// column c removed, with the appropriate cofactor sign. Like DetShorted
// it avoids the cancellation of the explicit difference.
//
// Multilinear expansion of the merged row gives
// C_ac − C_bc = (−1)^(b+c+1)·det(reduced), with b the deleted row —
// independent of whether a < b (the row move parity absorbs the
// difference). Verified against the explicit cofactor difference in
// the package tests.
func (sys *System) CofactorMergedRows(a, b, c int, s complex128, fscale, gscale float64) xmath.XComplex {
	return sys.detPooled(sys.mergedRowsPattern(a, b, c), s, fscale, gscale)
}

func (sys *System) mergedRowsPattern(a, b, c int) *pattern {
	return sys.pattern([2]int{-100 - a*sys.n - b, c}, func() projection { return mergedRowsProjection(sys.n, a, b, c) })
}

func (sys *System) orderBound(m int) int {
	if sys.numCaps < m {
		return sys.numCaps
	}
	return m
}

// VoltageGain returns H(s) = V(out)/V(in) for an ideal voltage source
// driving node in against ground:
//
//	N = C_in,out   D = C_in,in
//
// Both polynomials are cofactors of order n−1.
func (sys *System) VoltageGain(c *circuit.Circuit, in, out string) (*interp.TransferFunction, error) {
	i, err := nodeIndex(c, in)
	if err != nil {
		return nil, err
	}
	o, err := nodeIndex(c, out)
	if err != nil {
		return nil, err
	}
	m := sys.n - 1
	tf := &interp.TransferFunction{
		Name: fmt.Sprintf("V(%s)/V(%s)", out, in),
		Num: sys.evaluator("numerator", m, [2]int{i, o},
			func() projection { return cofactorProjection(sys.n, i, o) }),
		Den: sys.evaluator("denominator", m, [2]int{i, i},
			func() projection { return cofactorProjection(sys.n, i, i) }),
	}
	tf.EvalBoth, tf.BothReady = sys.jointCramer(i, func(det xmath.XComplex, x []complex128) (num, den xmath.XComplex) {
		return cramerValue(det, x, o), cramerValue(det, x, i)
	})
	return tf, nil
}

// DifferentialVoltageGain returns H(s) = V(out)/(V(inp)−V(inn)) for an
// ideal floating source between inp and inn:
//
//	N = C_inp,out − C_inn,out
//	D = C_inp,inp + C_inn,inn − C_inp,inn − C_inn,inp
//
// derived from H = (Z_out,inp − Z_out,inn)/(Z_inp,inp + Z_inn,inn −
// Z_inp,inn − Z_inn,inp) with Z = Y⁻¹ and Z_ij = C_ji/det Y.
func (sys *System) DifferentialVoltageGain(c *circuit.Circuit, inp, inn, out string) (*interp.TransferFunction, error) {
	ip, err := nodeIndex(c, inp)
	if err != nil {
		return nil, err
	}
	in, err := nodeIndex(c, inn)
	if err != nil {
		return nil, err
	}
	o, err := nodeIndex(c, out)
	if err != nil {
		return nil, err
	}
	if o == ip || o == in {
		return nil, fmt.Errorf("nodal: output node must differ from the input pair")
	}
	m := sys.n - 1
	// No EvalBoth here: the joint Cramer form would reconstruct the
	// numerator as det·(x_out from e_ip) − det·(x_out from e_in) — the
	// explicit cofactor difference whose ~6-digit cancellation on
	// weakly-coupled input pairs is exactly what the merged-row and
	// shorted single-determinant forms exist to avoid.
	return &interp.TransferFunction{
		Name: fmt.Sprintf("V(%s)/(V(%s)-V(%s))", out, inp, inn),
		Num: sys.evaluator("numerator", m, [2]int{-100 - ip*sys.n - in, o},
			func() projection { return mergedRowsProjection(sys.n, ip, in, o) }),
		Den: sys.evaluator("denominator", m, [2]int{-2 - ip, -2 - in},
			func() projection { return shortedProjection(sys.n, ip, in) }),
	}, nil
}

// Transimpedance returns H(s) = V(out)/I(in) for a current source
// injected into node in: N = C_in,out (order n−1), D = det Y (order n).
func (sys *System) Transimpedance(c *circuit.Circuit, in, out string) (*interp.TransferFunction, error) {
	i, err := nodeIndex(c, in)
	if err != nil {
		return nil, err
	}
	o, err := nodeIndex(c, out)
	if err != nil {
		return nil, err
	}
	tf := &interp.TransferFunction{
		Name: fmt.Sprintf("V(%s)/I(%s)", out, in),
		Num: sys.evaluator("numerator", sys.n-1, [2]int{i, o},
			func() projection { return cofactorProjection(sys.n, i, o) }),
		Den: sys.evaluator("denominator", sys.n, [2]int{-1, -1},
			func() projection { return identityProjection(sys.n) }),
	}
	tf.EvalBoth, tf.BothReady = sys.jointCramer(i, func(det xmath.XComplex, x []complex128) (num, den xmath.XComplex) {
		return cramerValue(det, x, o), det
	})
	return tf, nil
}

func nodeIndex(c *circuit.Circuit, name string) (int, error) {
	idx := c.NodeIndex(name)
	switch idx {
	case -1:
		return 0, fmt.Errorf("nodal: node %q is ground; network functions need non-ground terminals", name)
	case -2:
		return 0, fmt.Errorf("nodal: unknown node %q", name)
	}
	return idx, nil
}
