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
// (see mergedRowsPattern).
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
// systems of a sweep that adopt the pattern. Its evaluations draw their
// factorization workspaces and RHS vectors from the process-wide scratch
// stack (sparse.GetScratch), so steady-state evaluation reuses buffers
// instead of allocating per point, and a new pattern starts from buffers
// earlier patterns grew.
type pattern struct {
	proj projection
	plan sparse.SharedPlan

	// The projected positions of the stamps the projection keeps (see
	// System.kept), conductances first: the assembly order of every
	// point, and ng of them conductances. They depend on stamp positions
	// only, which every system adopting the pattern shares.
	pos [][2]int32
	ng  int

	// degrees is the structural degree window of the determinant
	// (window.go), computed once on first use by any adopting system.
	degreesOnce sync.Once
	degrees     interp.DegreeWindow
}

// kept calls fn with each of sys's stamps that proj keeps, and its
// projected position, conductances first, and returns how many
// conductances it kept.
func (sys *System) kept(proj projection, fn func(st stamp, i, j int32)) (ng int) {
	for k, stamps := range [2][]stamp{sys.gStamps, sys.cStamps} {
		for _, st := range stamps {
			if i, j := proj.row[st.i], proj.col[st.j]; i >= 0 && j >= 0 {
				fn(st, int32(i), int32(j))
				if k == 0 {
					ng++
				}
			}
		}
	}
	return ng
}

// newPattern resolves proj's surviving stamps of sys.
func (sys *System) newPattern(proj projection) *pattern {
	pat := &pattern{proj: proj, pos: make([][2]int32, 0, len(sys.gStamps)+len(sys.cStamps))}
	pat.ng = sys.kept(proj, func(_ stamp, i, j int32) {
		pat.pos = append(pat.pos, [2]int32{i, j})
	})
	return pat
}

// bound is a pattern bound to one system, whose stamp values it gathers
// in the pattern's assembly order on first use: the typed stamps every
// point of that system assembles from. Systems that adopt a pattern
// share it, not its values, and a pattern only formulated for its
// degree window never gathers them.
type bound struct {
	*pattern
	sys  *System
	once sync.Once
	asm  sparse.Assembly
}

// assembly returns b's typed stamps: sys's conductances in the G block,
// its capacitances in the C block.
func (b *bound) assembly() *sparse.Assembly {
	b.once.Do(b.gather)
	return &b.asm
}

func (b *bound) gather() {
	vals := make([]float64, 0, len(b.pos))
	b.sys.kept(b.proj, func(st stamp, _, _ int32) {
		vals = append(vals, st.v)
	})
	b.asm = sparse.Assembly{N: b.proj.dim, Pos: b.pos, G: vals[:b.ng], C: vals[b.ng:]}
}

// dets writes the signed determinants of b's matrix at the points pts,
// zero where singular, through the determinant-only lane replay (see
// sparse.Workspace.Dets).
func (b *bound) dets(sc *sparse.Scratch, dst []xmath.XComplex, pts []complex128, fscale, gscale float64) {
	sc.WS.Dets(&b.plan, b.assembly(), pts, fscale, gscale, dst)
	if b.proj.sign < 0 {
		for i := range dst {
			dst[i] = dst[i].Neg()
		}
	}
}

// detAt is dets at one point: the lane replay with one live lane.
func (b *bound) detAt(sc *sparse.Scratch, s complex128, fscale, gscale float64) xmath.XComplex {
	var d [1]xmath.XComplex
	b.dets(sc, d[:], []complex128{s}, fscale, gscale)
	return d[0]
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
	// variants. bounds holds this system's values of each, by the same
	// keys.
	mu       sync.Mutex
	patterns map[[2]int]*pattern
	bounds   map[[2]int]*bound
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
	sys.patterns, sys.bounds = shared, nil
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

// pattern returns the cached pattern for key bound to sys's values,
// creating the pattern with mk on first use.
func (sys *System) pattern(key [2]int, mk func() projection) *bound {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if b, ok := sys.bounds[key]; ok {
		return b
	}
	if sys.patterns == nil {
		sys.patterns = make(map[[2]int]*pattern)
	}
	p, ok := sys.patterns[key]
	if !ok {
		p = sys.newPattern(mk())
		sys.patterns[key] = p
	}
	if sys.bounds == nil {
		sys.bounds = make(map[[2]int]*bound)
	}
	b := &bound{pattern: p, sys: sys}
	sys.bounds[key] = b
	return b
}

// degreeWindow returns a copy of pat's structural degree window,
// computing it on first use in the shared matcher.
func (sys *System) degreeWindow(pat *pattern) *interp.DegreeWindow {
	pat.degreesOnce.Do(func() {
		windows.Lock()
		pat.degrees = windows.structuralWindow(pat)
		if cap(windows.cols) > maxMatcherEntries {
			windows.matcher = matcher{}
		}
		windows.Unlock()
	})
	w := pat.degrees
	return &w
}

// evaluator builds an interp.Evaluator over one cached pattern: the
// serial Eval evaluates one point with a pooled scratch (allocation-free
// in the steady state), while EvalBatch fans the frame's points out in
// chunks of sparse.Lanes over a worker pool with one pooled scratch per
// worker — returned to the shared stack when the batch drains —
// serially priming the shared pivot plan first. Both run the
// determinant-only lane replay, whose value at a point does not depend
// on the other points of its pass, so serial and parallel runs are
// bit-identical. Degrees carries the pattern's structural degree window
// (window.go).
func (sys *System) evaluator(name string, m int, b *bound) interp.Evaluator {
	return interp.Evaluator{
		Name: name, M: m, OrderBound: sys.orderBound(m),
		Degrees: sys.degreeWindow(b.pattern),
		Eval: func(s complex128, f, g float64) xmath.XComplex {
			return b.detPooled(s, f, g)
		},
		EvalBatch: func(ctx context.Context, points []complex128, f, g float64, workers int) []xmath.XComplex {
			// RunChunks returns only after every worker goroutine has
			// exited, so the scratches are idle when released.
			var lease sparse.Lease
			defer lease.Release()
			return interp.RunChunks(ctx, points, workers, sparse.Lanes, b.plan.Primed, func() func([]xmath.XComplex, []complex128) {
				sc := lease.Get()
				return func(dst []xmath.XComplex, pts []complex128) {
					b.dets(sc, dst, pts, f, g)
				}
			})
		},
	}
}

// jointCramer builds a TransferFunction.EvalBothChunk implementation
// (plus its BothReady gate) from the adjugate identity adj(Y) = det
// Y·Y⁻¹, whose entries are the signed cofactors adj(Y)_{j,i} = C_ij: one
// LU of the full matrix plus one solve of Y·x = e_in yields every C_in,j
// as det·x[j], so both polynomials of a cofactor-ratio network function
// come out of a single factorization. The points of a chunk go through
// the lane replay with a right-hand side (sparse.Workspace.Solves),
// which gives each point the bits its own factorization and solve give
// it. pick maps (det, x) to the (numerator, denominator) pair of the
// particular function.
//
// The joint values equal the independent cofactor determinants
// mathematically but not bitwise (different elimination orderings), so
// callers that need bit-reproducibility must stick to one mode — which
// core.GenerateTransferFunction's cache does.
func (sys *System) jointCramer(in int, pick func(det xmath.XComplex, x []complex128) (num, den xmath.XComplex)) (func(num, den []xmath.XComplex, pts []complex128, fscale, gscale float64), func() bool) {
	b := sys.detPattern()
	n := b.proj.dim
	both := func(num, den []xmath.XComplex, pts []complex128, fscale, gscale float64) {
		sc := sparse.GetScratch()
		rhs, x := sc.Vectors(n, len(pts))
		rhs[in] = 1
		// den holds the determinants until pick replaces them.
		sc.WS.Solves(&b.plan, b.assembly(), pts, fscale, gscale, rhs, den, x)
		for i := range pts {
			num[i], den[i] = pick(den[i], x[i*n:(i+1)*n])
		}
		sparse.PutScratch(sc)
	}
	return both, b.plan.Primed
}

// cramerValue returns det·x[j] = C_in,j, zero when the solve produced a
// non-finite entry (a singular point's solution is NaN).
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
	// Every element stamps at most four entries.
	nc := 4 * c.NumCapacitors()
	sys.gStamps = make([]stamp, 0, 4*len(c.Elements())-nc)
	sys.cStamps = make([]stamp, 0, nc)
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

// cofactorSign returns (−1)^(r+c).
func cofactorSign(r, c int) float64 {
	if (r+c)%2 == 0 {
		return 1
	}
	return -1
}

// detPooled is detAt through a scratch from the shared stack — the
// path of the single-point evaluations.
func (b *bound) detPooled(s complex128, fscale, gscale float64) xmath.XComplex {
	sc := sparse.GetScratch()
	det := b.detAt(sc, s, fscale, gscale)
	sparse.PutScratch(sc)
	return det
}

// The pattern helpers below own the key of each derived determinant,
// so that every evaluator and test of one determinant shares its plan.

// cofactorPattern is the signed first-order cofactor
// C_rc(s) = (−1)^(r+c)·det(Y(s) with row r and column c deleted).
func (sys *System) cofactorPattern(r, c int) *bound {
	return sys.pattern([2]int{r, c}, func() projection { return cofactorProjection(sys.n, r, c) })
}

// detPattern is det Y(s).
func (sys *System) detPattern() *bound {
	return sys.pattern([2]int{-1, -1}, func() projection { return identityProjection(sys.n) })
}

// shortedPattern is det of Y(s) with node b merged into node a (rows
// and columns summed) — the circuit with the two nodes shorted. By
// multilinearity this single determinant equals the four-cofactor sum
// C_aa + C_bb − C_ab − C_ba, but without the ~6-digit cancellation the
// explicit sum suffers on weakly-coupled input pairs.
func (sys *System) shortedPattern(a, b int) *bound {
	return sys.pattern([2]int{-2 - a, -2 - b}, func() projection { return shortedProjection(sys.n, a, b) })
}

// mergedRowsPattern is the single-determinant form of C_a,c − C_b,c:
// det of Y(s) with row b added into row a, row b and column c removed,
// with the appropriate cofactor sign. Like shortedPattern it avoids the
// cancellation of the explicit difference.
//
// Multilinear expansion of the merged row gives
// C_ac − C_bc = (−1)^(b+c+1)·det(reduced), with b the deleted row —
// independent of whether a < b (the row move parity absorbs the
// difference). TestDifferentialGainMatchesMNA checks the sign.
func (sys *System) mergedRowsPattern(a, b, c int) *bound {
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
		Num:  sys.evaluator("numerator", m, sys.cofactorPattern(i, o)),
		Den:  sys.evaluator("denominator", m, sys.cofactorPattern(i, i)),
	}
	tf.EvalBothChunk, tf.BothReady = sys.jointCramer(i, func(det xmath.XComplex, x []complex128) (num, den xmath.XComplex) {
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
	// No joint form here: the joint Cramer form would reconstruct the
	// numerator as det·(x_out from e_ip) − det·(x_out from e_in) — the
	// explicit cofactor difference whose ~6-digit cancellation on
	// weakly-coupled input pairs is exactly what the merged-row and
	// shorted single-determinant forms exist to avoid.
	return &interp.TransferFunction{
		Name: fmt.Sprintf("V(%s)/(V(%s)-V(%s))", out, inp, inn),
		Num:  sys.evaluator("numerator", m, sys.mergedRowsPattern(ip, in, o)),
		Den:  sys.evaluator("denominator", m, sys.shortedPattern(ip, in)),
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
		Num:  sys.evaluator("numerator", sys.n-1, sys.cofactorPattern(i, o)),
		Den:  sys.evaluator("denominator", sys.n, sys.detPattern()),
	}
	tf.EvalBothChunk, tf.BothReady = sys.jointCramer(i, func(det xmath.XComplex, x []complex128) (num, den xmath.XComplex) {
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
