// Package circuit defines the netlist data model shared by every analysis
// in this module: elements, nodes and a programmatic builder with
// validation.
//
// Ground is the node named "0" (or "gnd", case-insensitive); all other
// nodes are assigned dense indices in order of first appearance. The
// interpolation pipeline (internal/nodal) accepts the admittance-only
// subset — conductances, resistors, capacitors and VCCS — which is the
// class of circuits the paper treats (small-signal integrated circuits
// where every device reduces to g, C and gm primitives). The full element
// set, including independent sources and the remaining controlled
// sources, is supported by the MNA path (internal/mna).
package circuit

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
)

// Kind enumerates element types.
type Kind int

// Element kinds.
const (
	Resistor Kind = iota
	Conductance
	Capacitor
	Inductor
	VCCS // voltage-controlled current source (transconductance gm)
	VCVS // voltage-controlled voltage source (gain E)
	CCCS // current-controlled current source (gain F, control = a V source)
	CCVS // current-controlled voltage source (transresistance H)
	VSource
	ISource
)

var kindNames = map[Kind]string{
	Resistor: "R", Conductance: "G", Capacitor: "C", Inductor: "L",
	VCCS: "VCCS", VCVS: "VCVS", CCCS: "CCCS", CCVS: "CCVS",
	VSource: "V", ISource: "I",
}

// String returns the short kind mnemonic.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Element is one circuit element. P/N are the output (or only) terminals;
// CP/CN are the controlling nodes of VCCS/VCVS; Ctrl names the
// controlling voltage source of CCCS/CCVS.
type Element struct {
	Kind   Kind
	Name   string
	P, N   string
	CP, CN string
	Ctrl   string
	Value  float64
}

func (e Element) String() string {
	switch e.Kind {
	case VCCS, VCVS:
		return fmt.Sprintf("%s %s (%s,%s) <- (%s,%s) = %g", e.Kind, e.Name, e.P, e.N, e.CP, e.CN, e.Value)
	case CCCS, CCVS:
		return fmt.Sprintf("%s %s (%s,%s) <- I(%s) = %g", e.Kind, e.Name, e.P, e.N, e.Ctrl, e.Value)
	default:
		return fmt.Sprintf("%s %s (%s,%s) = %g", e.Kind, e.Name, e.P, e.N, e.Value)
	}
}

// Circuit is a flat netlist. The zero value is unusable; use New.
type Circuit struct {
	Name     string
	elems    []Element
	names    map[string]bool
	nodeIdx  map[string]int
	nodeList []string
}

// New returns an empty circuit.
func New(name string) *Circuit {
	return &Circuit{
		Name:    name,
		names:   make(map[string]bool),
		nodeIdx: make(map[string]int),
	}
}

// IsGround reports whether a node name denotes the reference node.
func IsGround(node string) bool {
	l := strings.ToLower(node)
	return l == "0" || l == "gnd"
}

func (c *Circuit) touchNode(name string) {
	if name == "" {
		panic("circuit: empty node name")
	}
	if IsGround(name) {
		return
	}
	if _, ok := c.nodeIdx[name]; !ok {
		c.nodeIdx[name] = len(c.nodeList)
		c.nodeList = append(c.nodeList, name)
	}
}

func (c *Circuit) add(e Element) error {
	if e.Name == "" {
		return fmt.Errorf("circuit: element of kind %s has no name", e.Kind)
	}
	if c.names[e.Name] {
		return fmt.Errorf("circuit: duplicate element name %q", e.Name)
	}
	if e.P == e.N && e.Kind != VCCS && e.Kind != VCVS {
		return fmt.Errorf("circuit: element %q shorts node %q to itself", e.Name, e.P)
	}
	if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
		return fmt.Errorf("circuit: element %q has non-finite value %g", e.Name, e.Value)
	}
	c.touchNode(e.P)
	c.touchNode(e.N)
	if e.Kind == VCCS || e.Kind == VCVS {
		c.touchNode(e.CP)
		c.touchNode(e.CN)
	}
	c.names[e.Name] = true
	c.elems = append(c.elems, e)
	return nil
}

// mustAdd is the panic-on-error form used by the fluent builder methods;
// builder misuse (duplicate names, shorted elements) is a programming
// error, not a runtime condition.
func (c *Circuit) mustAdd(e Element) *Circuit {
	if err := c.add(e); err != nil {
		panic(err)
	}
	return c
}

// AddElement appends a fully specified element, returning an error for
// invalid definitions. The parser uses this form.
func (c *Circuit) AddElement(e Element) error { return c.add(e) }

// AddR adds a resistor (ohms).
func (c *Circuit) AddR(name, p, n string, ohms float64) *Circuit {
	if ohms <= 0 {
		panic(fmt.Sprintf("circuit: resistor %q value %g must be positive", name, ohms))
	}
	return c.mustAdd(Element{Kind: Resistor, Name: name, P: p, N: n, Value: ohms})
}

// AddG adds an explicit conductance (siemens).
func (c *Circuit) AddG(name, p, n string, siemens float64) *Circuit {
	if siemens <= 0 {
		panic(fmt.Sprintf("circuit: conductance %q value %g must be positive", name, siemens))
	}
	return c.mustAdd(Element{Kind: Conductance, Name: name, P: p, N: n, Value: siemens})
}

// AddC adds a capacitor (farads).
func (c *Circuit) AddC(name, p, n string, farads float64) *Circuit {
	if farads <= 0 {
		panic(fmt.Sprintf("circuit: capacitor %q value %g must be positive", name, farads))
	}
	return c.mustAdd(Element{Kind: Capacitor, Name: name, P: p, N: n, Value: farads})
}

// AddL adds an inductor (henries).
func (c *Circuit) AddL(name, p, n string, henries float64) *Circuit {
	if henries <= 0 {
		panic(fmt.Sprintf("circuit: inductor %q value %g must be positive", name, henries))
	}
	return c.mustAdd(Element{Kind: Inductor, Name: name, P: p, N: n, Value: henries})
}

// AddVCCS adds a transconductance: current Value·(V(cp)−V(cn)) flows from
// p to n (out of p into n through the source, SPICE G convention:
// positive current from p to n internally, i.e. injected into n).
func (c *Circuit) AddVCCS(name, p, n, cp, cn string, gm float64) *Circuit {
	return c.mustAdd(Element{Kind: VCCS, Name: name, P: p, N: n, CP: cp, CN: cn, Value: gm})
}

// AddVCVS adds a voltage-controlled voltage source.
func (c *Circuit) AddVCVS(name, p, n, cp, cn string, gain float64) *Circuit {
	return c.mustAdd(Element{Kind: VCVS, Name: name, P: p, N: n, CP: cp, CN: cn, Value: gain})
}

// AddCCCS adds a current-controlled current source; ctrl names the
// voltage source whose current controls it.
func (c *Circuit) AddCCCS(name, p, n, ctrl string, gain float64) *Circuit {
	return c.mustAdd(Element{Kind: CCCS, Name: name, P: p, N: n, Ctrl: ctrl, Value: gain})
}

// AddCCVS adds a current-controlled voltage source.
func (c *Circuit) AddCCVS(name, p, n, ctrl string, transres float64) *Circuit {
	return c.mustAdd(Element{Kind: CCVS, Name: name, P: p, N: n, Ctrl: ctrl, Value: transres})
}

// AddV adds an independent voltage source (value = AC magnitude).
func (c *Circuit) AddV(name, p, n string, volts float64) *Circuit {
	return c.mustAdd(Element{Kind: VSource, Name: name, P: p, N: n, Value: volts})
}

// AddI adds an independent current source (value = AC magnitude, flowing
// from P through the source to N).
func (c *Circuit) AddI(name, p, n string, amps float64) *Circuit {
	return c.mustAdd(Element{Kind: ISource, Name: name, P: p, N: n, Value: amps})
}

// Elements returns the element list (shared slice; treat as read-only).
func (c *Circuit) Elements() []Element { return c.elems }

// Clone returns an independent copy of the circuit (same name unless
// suffix is non-empty, in which case it is appended): its element list,
// names and node indices are copied as they are, without re-adding the
// elements, which the source circuit has already validated.
func (c *Circuit) Clone(suffix string) *Circuit {
	return &Circuit{
		Name:     c.Name + suffix,
		elems:    slices.Clone(c.elems),
		names:    maps.Clone(c.names),
		nodeIdx:  maps.Clone(c.nodeIdx),
		nodeList: slices.Clone(c.nodeList),
	}
}

// SetValue sets the value of the i-th element (in Elements order),
// refusing a non-finite value as AddElement does.
func (c *Circuit) SetValue(i int, v float64) error {
	e := &c.elems[i]
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("circuit: element %q has non-finite value %g", e.Name, v)
	}
	e.Value = v
	return nil
}

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.nodeList) }

// Nodes returns the non-ground node names in index order.
func (c *Circuit) Nodes() []string { return c.nodeList }

// NodeIndex returns the dense index of a node name; ground returns -1.
// Unknown nodes return -2.
func (c *Circuit) NodeIndex(name string) int {
	if IsGround(name) {
		return -1
	}
	if i, ok := c.nodeIdx[name]; ok {
		return i
	}
	return -2
}

// HasElement reports whether an element with this name exists.
func (c *Circuit) HasElement(name string) bool { return c.names[name] }

// NumCapacitors returns the capacitor count — the paper's upper estimate
// for the network-function polynomial order.
func (c *Circuit) NumCapacitors() int {
	n := 0
	for _, e := range c.elems {
		if e.Kind == Capacitor {
			n++
		}
	}
	return n
}

// MeanCapacitance returns the arithmetic mean of capacitor values; the
// paper's first frequency scale factor is its inverse. Returns 0 for a
// capacitor-free circuit.
func (c *Circuit) MeanCapacitance() float64 {
	return c.mean(func(e Element) (float64, bool) { return e.Value, e.Kind == Capacitor })
}

// MeanConductance returns the arithmetic mean over all
// conductance-dimension values: explicit conductances, 1/R, and |gm| of
// VCCS elements. The paper's first conductance scale factor is its
// inverse. Returns 0 when the circuit has none.
func (c *Circuit) MeanConductance() float64 {
	return c.mean(func(e Element) (float64, bool) {
		switch e.Kind {
		case Conductance:
			return e.Value, true
		case Resistor:
			return 1 / e.Value, true
		case VCCS:
			return math.Abs(e.Value), true
		}
		return 0, false
	})
}

// mean returns the arithmetic mean of the values pick selects (0 when it
// selects none). The values are summed in ascending order, so the mean —
// and the seed scale pair built from it — is the same bit for bit
// however the netlist orders its cards, as the content key assumes.
func (c *Circuit) mean(pick func(Element) (float64, bool)) float64 {
	var buf [256]float64
	vals := buf[:0]
	for _, e := range c.elems {
		if v, ok := pick(e); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// SeedScales returns the paper's first scale pair (§3): frequency scale
// 1/mean(C) and conductance scale 1/mean(G). A factor with no mean to
// invert — no such elements, or a reciprocal that overflows on
// degenerate (subnormal) values — falls back to 1, and its warning
// (fwarn or gwarn, empty otherwise) says so in the words generation
// records as a quality event.
func (c *Circuit) SeedScales() (fscale, gscale float64, fwarn, gwarn string) {
	fscale, gscale = 1, 1
	if mc := c.MeanCapacitance(); mc > 0 && !math.IsInf(1/mc, 0) {
		fscale = 1 / mc
	} else {
		fwarn = "no capacitors: frequency-scale heuristic 1/mean(C) undefined, using InitFScale=1"
	}
	if mg := c.MeanConductance(); mg > 0 && !math.IsInf(1/mg, 0) {
		gscale = 1 / mg
	} else {
		gwarn = "no conductances: conductance-scale heuristic 1/mean(G) undefined, using InitGScale=1"
	}
	return fscale, gscale, fwarn, gwarn
}

// AdmittanceOnly reports whether every element is in the G/R/C/VCCS
// subset accepted by the nodal-analysis interpolation path.
func (c *Circuit) AdmittanceOnly() bool {
	for _, e := range c.elems {
		switch e.Kind {
		case Resistor, Conductance, Capacitor, VCCS:
		default:
			return false
		}
	}
	return true
}

// Validate checks global consistency: at least one element, every
// non-ground node touched by at least one element terminal (always true
// by construction), every CCCS/CCVS control referencing an existing
// voltage source, and at least one ground connection somewhere.
func (c *Circuit) Validate() error {
	if len(c.elems) == 0 {
		return fmt.Errorf("circuit %q: no elements", c.Name)
	}
	grounded := false
	vsrc := map[string]bool{}
	for _, e := range c.elems {
		if IsGround(e.P) || IsGround(e.N) {
			grounded = true
		}
		if e.Kind == VSource {
			vsrc[e.Name] = true
		}
	}
	for _, e := range c.elems {
		if (e.Kind == CCCS || e.Kind == CCVS) && !vsrc[e.Ctrl] {
			return fmt.Errorf("circuit %q: element %q controls from unknown voltage source %q", c.Name, e.Name, e.Ctrl)
		}
	}
	if !grounded {
		return fmt.Errorf("circuit %q: no element connects to ground", c.Name)
	}
	return nil
}

// Stats summarizes the circuit for logging and table headers.
func (c *Circuit) Stats() string {
	byKind := map[Kind]int{}
	for _, e := range c.elems {
		byKind[e.Kind]++
	}
	kinds := make([]Kind, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d nodes", c.Name, c.NumNodes())
	for _, k := range kinds {
		fmt.Fprintf(&b, ", %d %s", byKind[k], k)
	}
	return b.String()
}
