// Package mna implements modified nodal analysis over the full element
// set and the complex AC solve built on it.
//
// This is the module's "electrical simulator" substrate: the paper's
// Fig. 2 validates interpolated coefficients against a commercial
// simulator's AC analysis, which is exactly a per-frequency complex MNA
// assembly and sparse LU solve. It is also an independent implementation
// path from the nodal/cofactor pipeline, which makes cross-checks between
// the two meaningful tests.
package mna

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/circuit"
	"repro/internal/sparse"
	"repro/internal/xmath"
)

// topology is what every system built from one element list shares:
// the unknowns, each element's terminal and branch indices, the stamp
// positions in assembly order, and the pivot-order plan of the one MNA
// sparsity pattern. Build writes it once; only the plan changes
// afterwards, under its own lock.
type topology struct {
	src        circuit.Topology // the element list it was built from
	dim        int              // node count (non-ground) + branch count
	terms      []terms          // per element
	pos        [][2]int32       // stamp positions: conductance, structural, frequency
	ng, nu     int              // conductance and structural stamp counts
	orderBound int              // frequency-dependent elements
	// plan is the shared pivot-order plan, primed by the first
	// successful factorization of a generation run and replayed read-only
	// at every later point (see sparse.SharedPlan), by every system of
	// the topology: the points of a batch sweep share it.
	plan sparse.SharedPlan
}

// terms are one element's unknown indices: its terminals p and n (−1
// for ground), its controlling nodes cp and cn (VCCS, VCVS) or its
// controlling branch cp (CCCS, CCVS), and its own branch br
// (voltage-defined elements).
type terms struct{ p, n, cp, cn, br int32 }

// System is an assembled MNA structure: a shared topology plus this
// system's stamp values. Unknowns are the non-ground node voltages
// followed by one branch current per voltage-defined element (V
// sources, VCVS, CCVS, inductors).
//
// Stamps are kept in three classes so the matrix can be evaluated under
// the interpolation scale factors: conductance-dimension entries (R, G,
// VCCS — multiplied by the conductance scale), frequency-proportional
// entries (C, L — multiplied by s and the frequency scale), and
// structural entries (the ±1 couplings and dimensionless gains of
// voltage-defined branches — never scaled).
type System struct {
	c   *circuit.Circuit
	top *topology
	asm sparse.Assembly // the three classes as typed stamps, in that order: the assembly order
	rhs []float64
}

// Build assembles the MNA system. Every element kind in the circuit
// package is supported.
func Build(c *circuit.Circuit) (*System, error) { return BuildShared(c, nil) }

// BuildShared is Build with a prior system. When prev was built from
// c's element list (the same circuit.Topology: c is prev's circuit or a
// point copy of it, see circuit.WithValues), the new system shares
// prev's topology — unknowns, stamp positions and the pivot-order plan
// — and stamps values only, without validation or node-name lookups.
// Any other prev, nil included, gives a topology of the system's own:
// a full Build, which adopts nothing.
func BuildShared(c *circuit.Circuit, prev *System) (*System, error) {
	if prev != nil && prev.top.src == c.Topology() {
		return stamp(c, prev.top, false)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	top := &topology{src: c.Topology(), terms: make([]terms, c.NumElements())}
	// Branch unknowns for voltage-defined elements, then every element's
	// indices and the order bound.
	branch := make(map[string]int32)
	dim := c.NumNodes()
	for k := range c.NumElements() {
		e := c.Element(k)
		top.terms[k].br = -1
		switch e.Kind {
		case circuit.VSource, circuit.VCVS, circuit.CCVS, circuit.Inductor:
			top.terms[k].br = int32(dim)
			branch[e.Name] = int32(dim)
			dim++
		}
	}
	top.dim = dim
	for k := range c.NumElements() {
		e, t := c.Element(k), &top.terms[k]
		t.p, t.n = int32(c.NodeIndex(e.P)), int32(c.NodeIndex(e.N))
		switch e.Kind {
		case circuit.VCCS, circuit.VCVS:
			t.cp, t.cn = int32(c.NodeIndex(e.CP)), int32(c.NodeIndex(e.CN))
		case circuit.CCVS, circuit.CCCS:
			t.cp = branch[e.Ctrl]
		case circuit.Capacitor, circuit.Inductor:
			top.orderBound++
		}
	}
	return stamp(c, top, true)
}

// stamp fills a system over top with c's values. With build set it also
// records every stamp's position into top. Otherwise top already holds
// them, and the values go straight into the typed-stamp blocks.
func stamp(c *circuit.Circuit, top *topology, build bool) (*System, error) {
	sys := &System{c: c, top: top, rhs: make([]float64, top.dim)}
	s := stamper{build: build}
	if !build {
		nc := len(top.pos) - top.ng - top.nu
		s.g, s.u, s.c = make([]float64, 0, top.ng), make([]complex128, 0, top.nu), make([]float64, 0, nc)
	}
	for k := range c.NumElements() {
		e, t := c.Element(k), top.terms[k]
		p, q := t.p, t.n
		switch e.Kind {
		case circuit.Resistor:
			g := 1 / e.Value
			if math.IsInf(g, 0) || math.IsNaN(g) {
				return nil, fmt.Errorf("mna: resistor %q value %g has no finite conductance", e.Name, e.Value)
			}
			s.admittance(blockG, p, q, g)
		case circuit.Conductance:
			s.admittance(blockG, p, q, e.Value)
		case circuit.Capacitor:
			s.admittance(blockC, p, q, e.Value)
		case circuit.VCCS:
			s.add(blockG, p, t.cp, e.Value)
			s.add(blockG, p, t.cn, -e.Value)
			s.add(blockG, q, t.cp, -e.Value)
			s.add(blockG, q, t.cn, e.Value)
		case circuit.Inductor:
			s.branchVoltage(t.br, p, q)
			s.add(blockC, t.br, t.br, -e.Value)
		case circuit.VSource:
			s.branchVoltage(t.br, p, q)
			sys.rhs[t.br] = e.Value
		case circuit.VCVS:
			s.branchVoltage(t.br, p, q)
			s.add(blockU, t.br, t.cp, -e.Value)
			s.add(blockU, t.br, t.cn, e.Value)
		case circuit.CCVS:
			s.branchVoltage(t.br, p, q)
			s.add(blockU, t.br, t.cp, -e.Value)
		case circuit.CCCS:
			s.add(blockU, p, t.cp, e.Value)
			s.add(blockU, q, t.cp, -e.Value)
		case circuit.ISource:
			// Current e.Value flows from P through the source to N.
			if p >= 0 {
				sys.rhs[p] -= e.Value
			}
			if q >= 0 {
				sys.rhs[q] += e.Value
			}
		default:
			return nil, fmt.Errorf("mna: unsupported element kind %v", e.Kind)
		}
	}
	if build {
		top.ng, top.nu = len(s.g), len(s.u)
		top.pos = slices.Concat(s.pos[blockG], s.pos[blockU], s.pos[blockC])
	}
	sys.asm = sparse.Assembly{N: top.dim, Pos: top.pos, G: s.g, U: s.u, C: s.c}
	return sys, nil
}

// Stamp classes, in assembly order.
const (
	blockG = iota // conductance dimension
	blockU        // structural, unscaled
	blockC        // frequency proportional
)

// stamper collects a system's stamp values by class, and with build set
// their positions.
type stamper struct {
	build bool
	g, c  []float64
	u     []complex128
	pos   [3][][2]int32
}

// add adds value v at (i, j) to class block, skipping ground (−1) rows
// and columns.
func (s *stamper) add(block int, i, j int32, v float64) {
	if i < 0 || j < 0 {
		return
	}
	switch block {
	case blockG:
		s.g = append(s.g, v)
	case blockU:
		s.u = append(s.u, complex(v, 0))
	default:
		s.c = append(s.c, v)
	}
	if s.build {
		s.pos[block] = append(s.pos[block], [2]int32{i, j})
	}
}

// admittance adds the two-terminal admittance pattern.
func (s *stamper) admittance(block int, p, n int32, v float64) {
	s.add(block, p, p, v)
	s.add(block, n, n, v)
	if p >= 0 && n >= 0 {
		s.add(block, p, n, -v)
		s.add(block, n, p, -v)
	}
}

// branchVoltage adds the coupling pattern of a voltage-defined branch:
// KCL contributions of the branch current, and the KVL row selecting
// V(p) − V(n).
func (s *stamper) branchVoltage(br, p, n int32) {
	if p >= 0 {
		s.add(blockU, p, br, 1)
		s.add(blockU, br, p, 1)
	}
	if n >= 0 {
		s.add(blockU, n, br, -1)
		s.add(blockU, br, n, -1)
	}
}

// Solve computes the full unknown vector at frequency s with the
// independent sources at their AC values. It factors the typed stamps in
// full (sparse.Workspace.Solves with a nil plan) rather than replaying
// the generation's shared plan, so the AC reference stays independent
// of the pivot order the interpolation runs on.
func (sys *System) Solve(s complex128) ([]complex128, error) {
	sc := sparse.GetScratch()
	defer sparse.PutScratch(sc)
	var det [1]xmath.XComplex
	x := sys.solves(sc, nil, det[:], []complex128{s}, 1, 1)
	if det[0].Zero() {
		return nil, fmt.Errorf("mna: solve at s=%v: %w", s, sparse.ErrSingular)
	}
	return slices.Clone(x), nil
}

// VoltageAt extracts a node voltage from a solution vector; ground
// returns 0.
func (sys *System) VoltageAt(x []complex128, node string) (complex128, error) {
	idx := sys.c.NodeIndex(node)
	switch idx {
	case -1:
		return 0, nil
	case -2:
		return 0, fmt.Errorf("mna: unknown node %q", node)
	}
	return x[idx], nil
}

// Response is the direct AC analysis of a network function — the
// "electrical simulator" reference the paper compares against in Fig. 2:
// H(j2πf) at each frequency (Hz), the voltage at out under a unit drive.
// The circuit is cloned and the drive added according to kind: a unit
// voltage source at in for "vgain", between in and inn for "diffgain",
// a unit current into in for "transz"; "mna" circuits drive themselves
// through their own sources. Any other kind is an error. On
// cancellation the computed prefix is returned with ctx.Err().
func Response(ctx context.Context, c *circuit.Circuit, kind, in, inn, out string, freqsHz []float64) ([]complex128, error) {
	driven := c.Clone("+source")
	switch kind {
	case "vgain":
		driven.AddV("vdrive", in, "0", 1)
	case "diffgain":
		driven.AddV("vdrive", in, inn, 1)
	case "transz":
		driven.AddI("idrive", "0", in, 1)
	case "mna":
	default:
		return nil, fmt.Errorf("mna: unknown transfer kind %q (want vgain, diffgain, transz or mna)", kind)
	}
	sys, err := Build(driven)
	if err != nil {
		return nil, err
	}
	h := make([]complex128, len(freqsHz))
	for i, f := range freqsHz {
		if err := ctx.Err(); err != nil {
			return h[:i], err
		}
		x, err := sys.Solve(complex(0, 2*math.Pi*f))
		if err != nil {
			return h[:i], fmt.Errorf("mna: AC analysis at %g Hz: %w", f, err)
		}
		if h[i], err = sys.VoltageAt(x, out); err != nil {
			return h[:i], err
		}
	}
	return h, nil
}
