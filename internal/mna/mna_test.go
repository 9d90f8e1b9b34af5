package mna

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/sparse"
)

func solveOne(t *testing.T, c *circuit.Circuit, s complex128, node string) complex128 {
	t.Helper()
	sys, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sys.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.VoltageAt(x, node)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestResistiveDivider(t *testing.T) {
	c := circuit.New("div")
	c.AddV("vin", "in", "0", 2).
		AddR("r1", "in", "out", 1000).
		AddR("r2", "out", "0", 1000)
	if got := solveOne(t, c, 0, "out"); cmplx.Abs(got-1) > 1e-12 {
		t.Errorf("V(out) = %v, want 1", got)
	}
}

func TestRCLowpassPole(t *testing.T) {
	r, cap := 1e3, 1e-9 // pole at 1/(2πRC) ≈ 159 kHz
	c := circuit.New("rc")
	c.AddV("vin", "in", "0", 1).
		AddR("r1", "in", "out", r).
		AddC("c1", "out", "0", cap)
	w := 1 / (r * cap)
	got := solveOne(t, c, complex(0, w), "out")
	want := 1 / complex(1, 1) // H(jω) = 1/(1+jωRC) at ωRC = 1
	if cmplx.Abs(got-want) > 1e-12 {
		t.Errorf("H at pole = %v, want %v", got, want)
	}
	if math.Abs(cmplx.Abs(got)-1/math.Sqrt2) > 1e-12 {
		t.Errorf("|H| = %v, want -3 dB", cmplx.Abs(got))
	}
}

func TestInductorImpedance(t *testing.T) {
	// V -> L -> R to ground: |V(out)| = R/|R + jωL|.
	r, l := 50.0, 1e-6
	c := circuit.New("lr")
	c.AddV("vin", "in", "0", 1).
		AddL("l1", "in", "out", l).
		AddR("r1", "out", "0", r)
	w := r / l // ωL = R → H = 1/(1+j)
	got := solveOne(t, c, complex(0, w), "out")
	want := 1 / complex(1, 1)
	if cmplx.Abs(got-want) > 1e-12 {
		t.Errorf("H = %v, want %v", got, want)
	}
	// At DC the inductor is a short.
	if got := solveOne(t, c, 0, "out"); cmplx.Abs(got-1) > 1e-12 {
		t.Errorf("DC H = %v, want 1", got)
	}
}

func TestCurrentSourceAndConductance(t *testing.T) {
	c := circuit.New("ig")
	c.AddI("i1", "0", "n1", 2e-3). // 2 mA into n1
					AddG("g1", "n1", "0", 1e-3)
	if got := solveOne(t, c, 0, "n1"); cmplx.Abs(got-2) > 1e-12 {
		t.Errorf("V = %v, want 2", got)
	}
}

func TestVCCSInvertingAmp(t *testing.T) {
	// gm stage: vin -> gm -> rl. V(out) = -gm·R·vin.
	c := circuit.New("amp")
	c.AddV("vin", "in", "0", 1).
		AddVCCS("gm1", "out", "0", "in", "0", 1e-3).
		AddR("rl", "out", "0", 10000)
	// Current gm·vin flows from out to ground inside the source: pulls
	// out node down: V(out) = -gm·R = -10.
	if got := solveOne(t, c, 0, "out"); cmplx.Abs(got-(-10)) > 1e-9 {
		t.Errorf("V(out) = %v, want -10", got)
	}
}

func TestVCVS(t *testing.T) {
	c := circuit.New("e")
	c.AddV("vin", "in", "0", 0.5).
		AddR("rdummy", "in", "0", 1e6).
		AddVCVS("e1", "out", "0", "in", "0", 8).
		AddR("rl", "out", "0", 100)
	if got := solveOne(t, c, 0, "out"); cmplx.Abs(got-4) > 1e-12 {
		t.Errorf("V(out) = %v, want 4", got)
	}
}

func TestCCCSCurrentMirror(t *testing.T) {
	// I flows through vsense; F mirrors 3× into a load.
	c := circuit.New("f")
	c.AddI("ibias", "0", "a", 1e-3).
		AddV("vsense", "a", "0", 0). // ammeter
		AddCCCS("f1", "0", "out", "vsense", 3).
		AddR("rl", "out", "0", 1000)
	// I(vsense): current 1 mA enters node a and exits through vsense to
	// ground; branch current (P→N = a→0) is +1 mA. F injects 3 mA from
	// node 0 to out: 3 mA into out. V(out) = 3 mA · 1 kΩ = 3.
	if got := solveOne(t, c, 0, "out"); cmplx.Abs(got-3) > 1e-9 {
		t.Errorf("V(out) = %v, want 3", got)
	}
}

func TestCCVS(t *testing.T) {
	c := circuit.New("h")
	c.AddI("ibias", "0", "a", 2e-3).
		AddV("vsense", "a", "0", 0).
		AddCCVS("h1", "out", "0", "vsense", 500). // V(out) = 500·I
		AddR("rl", "out", "0", 1000)
	if got := solveOne(t, c, 0, "out"); cmplx.Abs(got-1) > 1e-9 {
		t.Errorf("V(out) = %v, want 1", got)
	}
}

func TestBranchCurrent(t *testing.T) {
	c := circuit.New("t")
	c.AddV("vin", "in", "0", 1).AddR("r1", "in", "0", 100)
	sys, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sys.Solve(0)
	if err != nil {
		t.Fatal(err)
	}
	// Branch current flows P→N through the source: the source delivers
	// 10 mA out of its + terminal, so the internal P→N current is −10 mA.
	if i := x[sys.branch("vin")]; cmplx.Abs(i-(-0.01)) > 1e-12 {
		t.Errorf("I(vin) = %v, want -0.01", i)
	}
	if sys.branch("r1") >= 0 {
		t.Error("resistor has a branch unknown")
	}
}

func TestACAnalysis(t *testing.T) {
	r, cap := 1e3, 1e-9
	c := circuit.New("rc")
	c.AddV("vin", "in", "0", 1).
		AddR("r1", "in", "out", r).
		AddC("c1", "out", "0", cap)
	fc := 1 / (2 * math.Pi * r * cap)
	h, err := Response(context.Background(), c, "mna", "", "", "out", []float64{fc / 100, fc, fc * 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmplx.Abs(h[0])-1) > 1e-3 {
		t.Errorf("passband |H| = %v", cmplx.Abs(h[0]))
	}
	if math.Abs(cmplx.Abs(h[1])-1/math.Sqrt2) > 1e-9 {
		t.Errorf("corner |H| = %v", cmplx.Abs(h[1]))
	}
	if cmplx.Abs(h[2]) > 0.011 {
		t.Errorf("stopband |H| = %v", cmplx.Abs(h[2]))
	}
}

// TestResponseDrives: each cofactor kind adds its unit drive to a
// source-free RC low-pass, an unknown kind is refused instead of
// answering all zeros, and a canceled context keeps the computed prefix.
func TestResponseDrives(t *testing.T) {
	c := circuit.New("rc")
	c.AddR("r1", "in", "out", 1e3).AddC("c1", "out", "0", 1e-9).AddR("r2", "ref", "0", 1e3)
	for _, tc := range []struct {
		kind, in, inn string
		want          complex128 // H(1 Hz)
	}{
		{"vgain", "in", "", 1},
		{"diffgain", "in", "ref", 1},
		{"transz", "out", "", complex(0, -1/(2*math.Pi*1e-9))}, // Z of c1
	} {
		h, err := Response(context.Background(), c, tc.kind, tc.in, tc.inn, "out", []float64{1})
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if cmplx.Abs(h[0]-tc.want) > 1e-3*cmplx.Abs(tc.want) {
			t.Errorf("%s: H(1 Hz) = %v, want ≈ %v", tc.kind, h[0], tc.want)
		}
	}
	if h, err := Response(context.Background(), c, "vgian", "in", "", "out", []float64{1}); err == nil {
		t.Errorf("unknown kind accepted: %v", h)
	}
	if len(c.Elements()) != 3 {
		t.Errorf("Response modified the circuit: %d elements", len(c.Elements()))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if h, err := Response(ctx, c, "vgain", "in", "", "out", []float64{1, 10}); !errors.Is(err, context.Canceled) || len(h) != 0 {
		t.Errorf("canceled: h = %v, err = %v", h, err)
	}
}

func TestVoltageAtErrors(t *testing.T) {
	c := circuit.New("t")
	c.AddR("r", "a", "0", 1)
	sys, _ := Build(c)
	x := []complex128{0}
	if v, err := sys.VoltageAt(x, "0"); err != nil || v != 0 {
		t.Error("ground voltage should be 0")
	}
	if _, err := sys.VoltageAt(x, "nope"); err == nil {
		t.Error("unknown node accepted")
	}
}

// TestUnknownNames pins the unknown layout: node voltages first, then
// one branch current per voltage-defined element.
func TestUnknownNames(t *testing.T) {
	c := circuit.New("t")
	c.AddV("vin", "a", "0", 1).AddR("r", "a", "0", 1)
	sys, _ := Build(c)
	if sys.top.dim != 2 || c.NodeIndex("a") != 0 || sys.branch("vin") != 1 {
		t.Errorf("dim %d, V(a) at %d, I(vin) at %d; want 2, 0, 1", sys.top.dim, c.NodeIndex("a"), sys.branch("vin"))
	}
}

// branch returns the branch unknown of the named element, −1 when it
// has none.
func (sys *System) branch(name string) int {
	for k := range sys.c.NumElements() {
		if sys.c.Element(k).Name == name {
			return int(sys.top.terms[k].br)
		}
	}
	return -1
}

func TestSingularSolveErrors(t *testing.T) {
	// Two ideal V sources fighting across the same node pair.
	c := circuit.New("bad")
	c.AddV("v1", "a", "0", 1).AddV("v2", "a", "0", 2)
	sys, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Solve(0)
	if !errors.Is(err, sparse.ErrSingular) || !strings.HasPrefix(err.Error(), "mna: solve at s=") {
		t.Errorf("singular system: err = %v, want a wrapped sparse.ErrSingular", err)
	}
}

// mapMatrixAt assembles the MNA matrix at s entry by entry into the
// map-based sparse.Matrix, in the typed stamps' order (conductance,
// structural, frequency).
func mapMatrixAt(sys *System, s complex128) *sparse.Matrix {
	a := &sys.asm
	m := sparse.New(a.N)
	for k, ij := range a.Pos {
		i, j := int(ij[0]), int(ij[1])
		switch {
		case k < len(a.G):
			m.Add(i, j, complex(a.G[k], 0))
		case k < len(a.G)+len(a.U):
			m.Add(i, j, a.U[k-len(a.G)])
		default:
			m.Add(i, j, s*complex(a.C[k-len(a.G)-len(a.U)], 0))
		}
	}
	return m
}

// TestSolveMatchesMapMatrix: Solve, a full factorization of the typed
// stamps, is bit for bit the solve of the map-based matrix at every
// point of a 1 Hz–10 GHz sweep (20 points per decade) on the µA741 under
// the diffgain drive and on the fifth-order LC ladder.
func TestSolveMatchesMapMatrix(t *testing.T) {
	inp, inn, _ := circuits.UA741Inputs()
	ua741 := circuits.UA741().Clone("+source")
	ua741.AddV("vdrive", inp, inn, 1)
	for _, c := range []*circuit.Circuit{ua741, circuits.LCLadder(5, 50, 1e6)} {
		sys, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]complex128, sys.top.dim)
		for i, v := range sys.rhs {
			b[i] = complex(v, 0)
		}
		for k := range 200 {
			s := complex(0, 2*math.Pi*math.Pow(10, float64(k)/20))
			got, err := sys.Solve(s)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			want, err := mapMatrixAt(sys, s).Solve(b)
			if err != nil {
				t.Fatalf("%s: oracle at s=%v: %v", c.Name, s, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s at s=%v: x[%d] = %v, map matrix gives %v", c.Name, s, i, got[i], want[i])
				}
			}
		}
	}
}
