package circuit

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func TestNodeIndexing(t *testing.T) {
	c := New("t")
	c.AddR("r1", "a", "b", 100).AddC("c1", "b", "0", 1e-12)
	if c.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	if c.NodeIndex("a") != 0 || c.NodeIndex("b") != 1 {
		t.Errorf("indices: a=%d b=%d", c.NodeIndex("a"), c.NodeIndex("b"))
	}
	if c.NodeIndex("0") != -1 || c.NodeIndex("GND") != -1 {
		t.Error("ground not recognized")
	}
	if c.NodeIndex("zzz") != -2 {
		t.Error("unknown node not reported")
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	c := New("t")
	c.AddR("r1", "a", "0", 100)
	if err := c.AddElement(Element{Kind: Resistor, Name: "r1", P: "a", N: "b", Value: 1}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestShortedElementRejected(t *testing.T) {
	c := New("t")
	if err := c.AddElement(Element{Kind: Resistor, Name: "r", P: "a", N: "a", Value: 1}); err == nil {
		t.Error("shorted element accepted")
	}
}

func TestBuilderPanicsOnBadValue(t *testing.T) {
	for _, f := range []func(){
		func() { New("t").AddR("r", "a", "0", -5) },
		func() { New("t").AddC("c", "a", "0", 0) },
		func() { New("t").AddL("l", "a", "0", -1) },
		func() { New("t").AddG("g", "a", "0", 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad value did not panic")
				}
			}()
			f()
		}()
	}
}

func TestValidate(t *testing.T) {
	c := New("empty")
	if err := c.Validate(); err == nil {
		t.Error("empty circuit validated")
	}
	c2 := New("floating")
	c2.AddR("r", "a", "b", 1)
	if err := c2.Validate(); err == nil {
		t.Error("ground-free circuit validated")
	}
	c3 := New("ok")
	c3.AddR("r", "a", "0", 1)
	if err := c3.Validate(); err != nil {
		t.Errorf("valid circuit rejected: %v", err)
	}
	c4 := New("badctrl")
	c4.AddR("r", "a", "0", 1).AddCCCS("f1", "a", "0", "vmissing", 2)
	if err := c4.Validate(); err == nil || !strings.Contains(err.Error(), "vmissing") {
		t.Errorf("dangling control not caught: %v", err)
	}
}

func TestMeans(t *testing.T) {
	c := New("t")
	c.AddR("r", "a", "0", 10). // 0.1 S
					AddG("g", "a", "0", 0.3).
					AddVCCS("gm", "a", "0", "b", "0", -0.2).
					AddC("c1", "b", "0", 1e-12).
					AddC("c2", "b", "a", 3e-12)
	if got := c.MeanConductance(); math.Abs(got-0.2) > 1e-15 {
		t.Errorf("MeanConductance = %g, want 0.2", got)
	}
	if got := c.MeanCapacitance(); got != 2e-12 {
		t.Errorf("MeanCapacitance = %g, want 2e-12", got)
	}
	if got := c.NumCapacitors(); got != 2 {
		t.Errorf("NumCapacitors = %d", got)
	}
	if New("none").MeanCapacitance() != 0 || New("none").MeanConductance() != 0 {
		t.Error("empty means not zero")
	}
}

// TestSeedScalesOrderInvariant pins that the seed scale pair does not
// depend on element order: the values below sum to 0.601 in one order
// and 0.6010000000000001 in another, yet every order seeds the same bits
// — the content key treats card order as spelling.
func TestSeedScalesOrderInvariant(t *testing.T) {
	vals := []float64{0.3, 0.1, 0.2, 1e-3}
	build := func(order []int) *Circuit {
		c := New("order")
		for _, k := range order {
			name := string(rune('a' + k))
			c.AddG("g"+name, name, "0", vals[k]).AddC("c"+name, name, "0", vals[k]*1e-12)
		}
		return c
	}
	f0, g0, _, _ := build([]int{0, 1, 2, 3}).SeedScales()
	for _, order := range [][]int{{3, 0, 2, 1}, {1, 2, 3, 0}, {3, 2, 1, 0}} {
		f, g, _, _ := build(order).SeedScales()
		if f != f0 || g != g0 {
			t.Errorf("order %v seeds (%v, %v), order [0 1 2 3] seeds (%v, %v)", order, f, g, f0, g0)
		}
	}
}

func TestAdmittanceOnly(t *testing.T) {
	c := New("t")
	c.AddR("r", "a", "0", 1).AddC("c", "a", "0", 1e-12).AddVCCS("gm", "a", "0", "a", "0", 1e-3)
	if !c.AdmittanceOnly() {
		t.Error("G/C/gm circuit not admittance-only")
	}
	c.AddV("v", "a", "0", 1)
	if c.AdmittanceOnly() {
		t.Error("circuit with V source reported admittance-only")
	}
}

func TestStatsAndStrings(t *testing.T) {
	c := New("amp")
	c.AddR("r", "in", "0", 50).AddVCCS("gm", "out", "0", "in", "0", 1e-3)
	s := c.Stats()
	if !strings.Contains(s, "amp") || !strings.Contains(s, "2 nodes") {
		t.Errorf("Stats = %q", s)
	}
	e := c.Elements()[1]
	if got := e.String(); !strings.Contains(got, "VCCS") || !strings.Contains(got, "gm") {
		t.Errorf("Element.String = %q", got)
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind string")
	}
}

func TestIsGround(t *testing.T) {
	for _, g := range []string{"0", "gnd", "GND", "Gnd"} {
		if !IsGround(g) {
			t.Errorf("IsGround(%q) = false", g)
		}
	}
	for _, n := range []string{"1", "out", "ground"} {
		if IsGround(n) {
			t.Errorf("IsGround(%q) = true", n)
		}
	}
}

// TestCloneIndependent: a clone has the base's name (plus the suffix),
// nodes, node indices and elements, and neither changing a clone's
// values nor adding to it reaches the base.
func TestCloneIndependent(t *testing.T) {
	base := New("t")
	base.AddR("r1", "a", "b", 100).AddC("c1", "b", "0", 1e-12).AddVCCS("g1", "b", "0", "a", "0", 1e-3)
	c := base.Clone("+x")
	if c.Name != "t+x" {
		t.Errorf("clone name %q, want %q", c.Name, "t+x")
	}
	if !slices.Equal(c.Elements(), base.Elements()) || !slices.Equal(c.Nodes(), base.Nodes()) {
		t.Fatalf("clone elements %v nodes %v, base %v %v", c.Elements(), c.Nodes(), base.Elements(), base.Nodes())
	}
	for _, n := range append(base.Nodes(), "0", "zzz") {
		if c.NodeIndex(n) != base.NodeIndex(n) {
			t.Errorf("NodeIndex(%q): clone %d, base %d", n, c.NodeIndex(n), base.NodeIndex(n))
		}
	}
	for _, e := range base.Elements() {
		if !c.HasElement(e.Name) {
			t.Errorf("clone lacks element %q", e.Name)
		}
	}

	if err := c.SetValue(0, 200); err != nil {
		t.Fatal(err)
	}
	c.AddR("r2", "b", "d", 50)
	if v := base.Elements()[0].Value; v != 100 {
		t.Errorf("base r1 = %g after the clone's SetValue, want 100", v)
	}
	if len(base.Elements()) != 3 || base.HasElement("r2") || base.NumNodes() != 2 || base.NodeIndex("d") != -2 {
		t.Errorf("adding to the clone reached the base: %d elements, r2 %v, %d nodes", len(base.Elements()), base.HasElement("r2"), base.NumNodes())
	}
	if c.Elements()[0].Value != 200 || c.NodeIndex("d") != 2 {
		t.Errorf("clone r1 = %g, d = %d; want 200, 2", c.Elements()[0].Value, c.NodeIndex("d"))
	}
}

// TestSetValueRejectsNonFinite: SetValue refuses what AddElement
// refuses, with the same message, and leaves the value unchanged.
func TestSetValueRejectsNonFinite(t *testing.T) {
	c := New("t")
	c.AddR("r1", "a", "0", 100)
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		err := c.SetValue(0, v)
		want := c.AddElement(Element{Kind: Resistor, Name: "r9", P: "a", N: "0", Value: v})
		if err == nil || want == nil || strings.Replace(err.Error(), "r1", "r9", 1) != want.Error() {
			t.Errorf("SetValue(%g) = %v, AddElement says %v", v, err, want)
		}
		if c.Elements()[0].Value != 100 {
			t.Errorf("refused SetValue(%g) changed the value to %g", v, c.Elements()[0].Value)
		}
	}
}

// TestPointCopyValues: a point copy (WithValues) reads its own values
// through every accessor — Value, Element, Elements, the means — over
// the base's element list and topology, refuses a short or non-finite
// value vector, and is isolated from the base both ways: SetValue on
// either, and an element added to either, never shows in the other.
func TestPointCopyValues(t *testing.T) {
	base := New("t")
	base.AddR("r1", "a", "b", 100).AddC("c1", "b", "0", 1e-12).AddVCCS("g1", "b", "0", "a", "0", 1e-3)
	if _, err := base.WithValues([]float64{1, 2}); err == nil {
		t.Error("a short value vector was accepted")
	}
	if _, err := base.WithValues([]float64{1, math.Inf(1), 3}); err == nil || !strings.Contains(err.Error(), `"c1"`) {
		t.Errorf("a non-finite value: err = %v, want one naming c1", err)
	}
	p, err := base.WithValues([]float64{200, 2e-12, 2e-3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Topology() != base.Topology() || p.Name != base.Name || !slices.Equal(p.Nodes(), base.Nodes()) {
		t.Fatalf("point copy: topology shared %v, name %q, nodes %v", p.Topology() == base.Topology(), p.Name, p.Nodes())
	}
	want := slices.Clone(base.Elements())
	want[0].Value, want[1].Value, want[2].Value = 200, 2e-12, 2e-3
	if got := p.Elements(); !slices.Equal(got, want) {
		t.Errorf("point elements %v, want %v", got, want)
	}
	for i := range want {
		if p.Element(i) != want[i] || p.Value(i) != want[i].Value {
			t.Errorf("element %d: %v / %g, want %v", i, p.Element(i), p.Value(i), want[i])
		}
	}
	if p.MeanCapacitance() != 2e-12 || p.MeanConductance() != (1.0/200+2e-3)/2 {
		t.Errorf("point means C %g G %g", p.MeanCapacitance(), p.MeanConductance())
	}
	if c := p.Clone("+x"); !slices.Equal(c.Elements(), want) || c.Topology() == p.Topology() {
		t.Errorf("clone of a point copy: elements %v, shares its topology %v", c.Elements(), c.Topology() == p.Topology())
	}

	// SetValue on either side.
	if err := p.SetValue(0, 300); err != nil {
		t.Fatal(err)
	}
	if err := base.SetValue(1, 5e-12); err != nil {
		t.Fatal(err)
	}
	if base.Value(0) != 100 || p.Value(1) != 2e-12 || p.Value(0) != 300 || base.Value(1) != 5e-12 {
		t.Errorf("after SetValue: base r1 %g c1 %g, point r1 %g c1 %g; want 100, 5e-12, 300, 2e-12",
			base.Value(0), base.Value(1), p.Value(0), p.Value(1))
	}

	// Elements added to either side.
	q, err := base.WithValues([]float64{1, 1e-12, 1})
	if err != nil {
		t.Fatal(err)
	}
	base.AddR("rb", "b", "e", 7)
	p.AddR("rp", "a", "d", 9)
	if p.Topology() == q.Topology() || base.Topology() == q.Topology() {
		t.Error("adding an element kept the shared topology")
	}
	for _, v := range []struct {
		name        string
		c           *Circuit
		n           int
		has, hasNot string
		values      []float64
	}{
		{"base", base, 4, "rb", "rp", []float64{100, 5e-12, 1e-3, 7}},
		{"point p", p, 4, "rp", "rb", []float64{300, 2e-12, 2e-3, 9}},
		{"point q", q, 3, "g1", "rb", []float64{1, 1e-12, 1}},
	} {
		if v.c.NumElements() != v.n || len(v.c.Elements()) != v.n || !v.c.HasElement(v.has) || v.c.HasElement(v.hasNot) {
			t.Errorf("%s: %d elements, has %s %v, has %s %v", v.name, v.c.NumElements(), v.has, v.c.HasElement(v.has), v.hasNot, v.c.HasElement(v.hasNot))
			continue
		}
		for i, want := range v.values {
			if v.c.Value(i) != want || v.c.Elements()[i].Value != want {
				t.Errorf("%s: element %d value %g, want %g", v.name, i, v.c.Value(i), want)
			}
		}
	}
	if q.NodeIndex("d") != -2 || q.NodeIndex("e") != -2 || p.NodeIndex("e") != -2 || base.NodeIndex("d") != -2 {
		t.Error("a node added on one side reached another")
	}
}
