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
// systems of a sweep that share the topology. Its evaluations draw their
// factorization workspaces and RHS vectors from the process-wide scratch
// stack (sparse.GetScratch), so steady-state evaluation reuses buffers
// instead of allocating per point, and a new pattern starts from buffers
// earlier patterns grew.
type pattern struct {
	proj projection
	plan sparse.SharedPlan

	// The projected positions of the stamps the projection keeps,
	// conductances first: the assembly order of every point, and ng of
	// them conductances. src holds each kept stamp's index into a
	// system's values (see System.value), nil when the projection keeps
	// every stamp, in order.
	pos [][2]int32
	ng  int
	src []int32

	// degrees is the structural degree window of the determinant
	// (window.go), computed once on first use by any system of the
	// topology.
	degreesOnce sync.Once
	degrees     interp.DegreeWindow
}

// newPattern resolves the stamps of top that proj keeps, and their
// projected positions.
func (top *topology) newPattern(proj projection) *pattern {
	total := len(top.gPos) + len(top.cPos)
	pat := &pattern{proj: proj, pos: make([][2]int32, 0, total)}
	for k, list := range [2][][2]int32{top.gPos, top.cPos} {
		for x, ij := range list {
			i, j := proj.row[ij[0]], proj.col[ij[1]]
			if i < 0 || j < 0 {
				if pat.src == nil {
					// The first dropped stamp: every one before it was kept.
					pat.src = make([]int32, len(pat.pos), total)
					for y := range pat.src {
						pat.src[y] = int32(y)
					}
				}
				continue
			}
			pat.pos = append(pat.pos, [2]int32{int32(i), int32(j)})
			if pat.src != nil {
				pat.src = append(pat.src, int32(k*len(top.gPos)+x))
			}
			if k == 0 {
				pat.ng++
			}
		}
	}
	return pat
}

// bound is a pattern bound to one system, whose stamp values it gathers
// in the pattern's assembly order on first use: the typed stamps every
// point of that system assembles from. Systems of one topology share
// the pattern, not its values, and a pattern only formulated for its
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

// gather reads the kept stamps' values; a pattern that keeps every
// stamp uses the system's value lists as they are.
func (b *bound) gather() {
	b.asm = sparse.Assembly{N: b.proj.dim, Pos: b.pos, G: b.sys.g, C: b.sys.c}
	if b.src == nil {
		return
	}
	vals := make([]float64, len(b.src))
	for k, x := range b.src {
		vals[k] = b.sys.value(x)
	}
	b.asm.G, b.asm.C = vals[:b.ng], vals[b.ng:]
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

// topology is what every system built from one element list shares:
// the matrix order, each element's terminal indices, the stamp
// positions, and the pattern cache. Build writes everything but the
// cache once; the cache is guarded by mu, so systems sharing a topology
// may formulate concurrently.
type topology struct {
	src     circuit.Topology // the element list it was built from
	n       int
	numCaps int
	terms   [][4]int32 // per element: p, n, cp, cn (−1 for ground)
	gPos    [][2]int32 // conductance stamp positions, in stamping order
	cPos    [][2]int32 // capacitance stamp positions, in stamping order

	// patterns caches a projection plus shared pivot-order plan and
	// degree window per derived determinant. Keys: {-1,-1} for the full
	// determinant, {r,c} for first-order cofactors, and synthetic keys
	// for merged/shorted variants.
	mu       sync.Mutex
	patterns map[[2]int]*pattern
}

// System is the assembled grounded node-admittance structure: a shared
// topology plus this system's stamp values, conductances and
// capacitances apart, so the matrix can be evaluated at any complex
// frequency with any pair of scale factors. Evaluation is safe for
// concurrent use: the caches are mutex-guarded and each evaluation
// assembles into its own scratch matrix.
type System struct {
	top  *topology
	g, c []float64 // values aligned with top.gPos and top.cPos

	// bounds holds this system's values of each pattern, by pattern key.
	mu     sync.Mutex
	bounds map[[2]int]*bound
}

// value returns stamp x's value: x indexes the conductances, then the
// capacitances.
func (sys *System) value(x int32) float64 {
	if int(x) < len(sys.g) {
		return sys.g[x]
	}
	return sys.c[int(x)-len(sys.g)]
}

// pattern returns the cached pattern for key bound to sys's values,
// creating the pattern with mk on first use.
func (sys *System) pattern(key [2]int, mk func() projection) *bound {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if b, ok := sys.bounds[key]; ok {
		return b
	}
	p := sys.top.pattern(key, mk)
	if sys.bounds == nil {
		sys.bounds = make(map[[2]int]*bound)
	}
	b := &bound{pattern: p, sys: sys}
	sys.bounds[key] = b
	return b
}

// pattern returns the pattern for key, creating it with mk on first use.
func (top *topology) pattern(key [2]int, mk func() projection) *pattern {
	top.mu.Lock()
	defer top.mu.Unlock()
	p, ok := top.patterns[key]
	if !ok {
		if top.patterns == nil {
			top.patterns = make(map[[2]int]*pattern)
		}
		p = top.newPattern(mk())
		top.patterns[key] = p
	}
	return p
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
			return interp.RunChunks(ctx, make([]xmath.XComplex, len(points)), points, workers, sparse.Lanes, b.plan.Primed, func() func([]xmath.XComplex, []complex128) {
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
func Build(c *circuit.Circuit) (*System, error) { return BuildShared(c, nil) }

// BuildShared is Build with a prior system. When prev was built from
// c's element list (the same circuit.Topology: c is prev's circuit or a
// point copy of it, see circuit.WithValues), the new system shares
// prev's topology — terminal indices, stamp positions and the pattern
// cache with its primed plans and degree windows — and stamps values
// only, without validation or node-name lookups. Any other prev, nil
// included, gives a topology of the system's own: a full Build, which
// adopts nothing.
//
// Sharing is what makes a batch sweep amortize formulation and
// factorization planning: every point of a topology re-uses the plans
// the first point primed (and contributes any new ones).
func BuildShared(c *circuit.Circuit, prev *System) (*System, error) {
	if prev != nil && prev.top.src == c.Topology() {
		return stamp(c, prev.top, false)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if !c.AdmittanceOnly() {
		return nil, fmt.Errorf("nodal: circuit %q contains non-admittance elements; use the MNA path for analysis or reduce sources to Norton equivalents", c.Name)
	}
	ne, nc := c.NumElements(), c.NumCapacitors()
	// Every element stamps at most four entries.
	top := &topology{src: c.Topology(), n: c.NumNodes(), numCaps: nc,
		terms: make([][4]int32, 0, ne),
		gPos:  make([][2]int32, 0, 4*(ne-nc)), cPos: make([][2]int32, 0, 4*nc)}
	return stamp(c, top, true)
}

// stamp fills a system over top with c's values. With build set it
// also fills top: each element's terminal indices, from the node names,
// and every stamp's position. Otherwise top already holds them, and the
// values go into one allocation, in the order build stamped them.
func stamp(c *circuit.Circuit, top *topology, build bool) (*System, error) {
	s := stamper{top: top, build: build}
	if build {
		s.g, s.c = make([]float64, 0, cap(top.gPos)), make([]float64, 0, cap(top.cPos))
	} else {
		ng := len(top.gPos)
		vals := make([]float64, ng+len(top.cPos))
		s.g, s.c = vals[:0:ng], vals[ng:ng]
	}
	for k := range c.NumElements() {
		e := c.Element(k)
		var t [4]int32
		if build {
			t = [4]int32{int32(c.NodeIndex(e.P)), int32(c.NodeIndex(e.N)), -1, -1}
			if e.Kind == circuit.VCCS {
				t[2], t[3] = int32(c.NodeIndex(e.CP)), int32(c.NodeIndex(e.CN))
			}
			top.terms = append(top.terms, t)
		} else {
			t = top.terms[k]
		}
		switch e.Kind {
		case circuit.Conductance:
			s.admittance(false, t[0], t[1], e.Value)
		case circuit.Resistor:
			// Guard the reciprocal: a subnormal resistance stamps ±Inf and
			// poisons every solve downstream.
			g := 1 / e.Value
			if math.IsInf(g, 0) || math.IsNaN(g) {
				return nil, fmt.Errorf("nodal: resistor %q value %g has no finite conductance", e.Name, e.Value)
			}
			s.admittance(false, t[0], t[1], g)
		case circuit.Capacitor:
			s.admittance(true, t[0], t[1], e.Value)
		case circuit.VCCS:
			s.vccs(t, e.Value)
		}
	}
	return &System{top: top, g: s.g, c: s.c}, nil
}

// stamper collects a system's stamp values, conductances and
// capacitances apart, and with build set their positions into top.
type stamper struct {
	top   *topology
	build bool
	g, c  []float64
}

// add adds value v at (i, j) to the capacitances (capacitive) or the
// conductances, skipping ground (−1) rows and columns.
func (s *stamper) add(capacitive bool, i, j int32, v float64) {
	if i < 0 || j < 0 {
		return
	}
	vals, pos := &s.g, &s.top.gPos
	if capacitive {
		vals, pos = &s.c, &s.top.cPos
	}
	*vals = append(*vals, v)
	if s.build {
		*pos = append(*pos, [2]int32{i, j})
	}
}

// admittance adds the two-terminal admittance pattern.
func (s *stamper) admittance(capacitive bool, p, n int32, v float64) {
	s.add(capacitive, p, p, v)
	s.add(capacitive, n, n, v)
	if p >= 0 && n >= 0 {
		s.add(capacitive, p, n, -v)
		s.add(capacitive, n, p, -v)
	}
}

// vccs adds the transconductance pattern: current gm·(v_cp − v_cn)
// flows from node p through the source into node n (t holds p, n, cp,
// cn).
func (s *stamper) vccs(t [4]int32, gm float64) {
	s.add(false, t[0], t[2], gm)
	s.add(false, t[0], t[3], -gm)
	s.add(false, t[1], t[2], -gm)
	s.add(false, t[1], t[3], gm)
}

// N returns the matrix order (number of non-ground nodes).
func (sys *System) N() int { return sys.top.n }

// NumCapacitors returns the capacitor count (the order upper bound).
func (sys *System) NumCapacitors() int { return sys.top.numCaps }

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
	return sys.pattern([2]int{r, c}, func() projection { return cofactorProjection(sys.top.n, r, c) })
}

// detPattern is det Y(s).
func (sys *System) detPattern() *bound {
	return sys.pattern([2]int{-1, -1}, func() projection { return identityProjection(sys.top.n) })
}

// shortedPattern is det of Y(s) with node b merged into node a (rows
// and columns summed) — the circuit with the two nodes shorted. By
// multilinearity this single determinant equals the four-cofactor sum
// C_aa + C_bb − C_ab − C_ba, but without the ~6-digit cancellation the
// explicit sum suffers on weakly-coupled input pairs.
func (sys *System) shortedPattern(a, b int) *bound {
	return sys.pattern([2]int{-2 - a, -2 - b}, func() projection { return shortedProjection(sys.top.n, a, b) })
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
	return sys.pattern([2]int{-100 - a*sys.top.n - b, c}, func() projection { return mergedRowsProjection(sys.top.n, a, b, c) })
}

func (sys *System) orderBound(m int) int {
	if sys.top.numCaps < m {
		return sys.top.numCaps
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
	m := sys.top.n - 1
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
	m := sys.top.n - 1
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
		Num:  sys.evaluator("numerator", sys.top.n-1, sys.cofactorPattern(i, o)),
		Den:  sys.evaluator("denominator", sys.top.n, sys.detPattern()),
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
