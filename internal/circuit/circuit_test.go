package circuit

import (
	"math"
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
