package symbolic

import (
	"math"
	"math/rand"

	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/nodal"
	"repro/internal/xmath"
)

func TestVoltageDividerTerms(t *testing.T) {
	c := circuit.New("div")
	c.AddG("g1", "in", "out", 1e-3).AddG("g2", "out", "0", 1e-4)
	num, den, err := VoltageGain(c, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	// N = g1 (one term), D = g1 + g2 (two terms), all at s^0.
	if n := num.NumTerms(); n != 1 {
		t.Errorf("numerator terms = %d, want 1", n)
	}
	if n := den.NumTerms(); n != 2 {
		t.Errorf("denominator terms = %d, want 2", n)
	}
	if got := num.Coefficient(0).Float64(); math.Abs(got-1e-3) > 1e-18 {
		t.Errorf("N(0) = %g", got)
	}
	if got := den.Coefficient(0).Float64(); math.Abs(got-1.1e-3) > 1e-18 {
		t.Errorf("D(0) = %g", got)
	}
	if den.ByPower[0][0].String() != "g1" { // larger term first
		t.Errorf("largest term = %s", den.ByPower[0][0])
	}
}

func TestRCTermStructure(t *testing.T) {
	c := circuit.New("rc")
	c.AddG("g1", "in", "out", 1e-3).AddC("c1", "out", "0", 1e-12)
	_, den, err := VoltageGain(c, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	if den.MaxPower() != 1 {
		t.Errorf("max power = %d", den.MaxPower())
	}
	if len(den.ByPower[0]) != 1 || den.ByPower[0][0].Symbols[0] != "g1" {
		t.Errorf("s^0 terms = %v", den.ByPower[0])
	}
	if len(den.ByPower[1]) != 1 || den.ByPower[1][0].Symbols[0] != "c1" {
		t.Errorf("s^1 terms = %v", den.ByPower[1])
	}
}

// TestCoefficientsMatchExact cross-checks the symbolic term sums against
// the exact oracle on random circuits.
func TestCoefficientsMatchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		c := circuits.RandomGCgm(rng, 5)
		num, den, err := VoltageGain(c, "n0", "n3")
		if err != nil {
			t.Fatal(err)
		}
		wantNum, wantDen, err := exact.VoltageGain(c, "n0", "n3")
		if err != nil {
			t.Fatal(err)
		}
		checkAgainst := func(a *Analysis, want exact.RatPoly, label string) {
			wx := want.ToXPoly()
			for k := 0; k <= a.MaxPower() || k < len(wx); k++ {
				var w xmath.XFloat
				if k < len(wx) {
					w = wx[k]
				}
				got := a.Coefficient(k)
				if w.Zero() {
					if !got.Zero() && got.Abs().Log10() > -320 {
						t.Errorf("trial %d %s s^%d: got %v, want 0", trial, label, k, got)
					}
					continue
				}
				if !got.ApproxEqual(w, 1e-9) {
					t.Errorf("trial %d %s s^%d: got %v, want %v", trial, label, k, got, w)
				}
			}
		}
		checkAgainst(num, wantNum, "num")
		checkAgainst(den, wantDen, "den")
	}
}

func TestRejectsNonAdmittance(t *testing.T) {
	c := circuit.New("bad")
	c.AddV("v1", "a", "0", 1).AddR("r1", "a", "0", 1)
	if _, _, err := VoltageGain(c, "a", "a"); err == nil {
		t.Error("accepted circuit with V source")
	}
}

// TestSDGTruncation runs the full motivating flow: generate references
// with the adaptive algorithm, then truncate the symbolic expression
// under eq. (3) and verify the achieved error.
func TestSDGTruncation(t *testing.T) {
	c := circuits.GmCCascade(3, 1e-4, 1e-5, 1e-12)
	out := circuits.GmCCascadeOut(3)
	sys, err := nodal.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := sys.VoltageGain(c, "in", out)
	if err != nil {
		t.Fatal(err)
	}
	_, den, err := core.GenerateTransferFunction(c, tf, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, symDen, err := VoltageGain(c, "in", out)
	if err != nil {
		t.Fatal(err)
	}
	refs := den.Poly()
	for k := 0; k <= symDen.MaxPower(); k++ {
		terms := symDen.ByPower[k]
		if len(terms) == 0 {
			continue
		}
		var ref xmath.XFloat
		if k < len(refs) {
			ref = refs[k]
		}
		tr, err := TruncateSDG(terms, ref, 0.01)
		if err != nil {
			t.Errorf("s^%d: %v", k, err)
			continue
		}
		if tr.AchievedError > 0.01 {
			t.Errorf("s^%d: achieved error %g", k, tr.AchievedError)
		}
		if len(tr.Kept) == 0 {
			t.Errorf("s^%d: nothing kept", k)
		}
		// The whole point: with a coarse ε the truncated expression is
		// shorter than the full one for at least some coefficient.
		t.Logf("s^%d: kept %d of %d terms (err %.2g): %s", k, len(tr.Kept), tr.Total, tr.AchievedError, tr.Formula())
	}
}

func TestSDGTruncationDropsTerms(t *testing.T) {
	// A coefficient with terms of very different magnitudes: ε = 1%
	// must keep only the dominant one.
	terms := []Term{
		{Coeff: 1, Symbols: []string{"a"}, Value: xmath.FromFloat(1)},
		{Coeff: 1, Symbols: []string{"b"}, Value: xmath.FromFloat(1e-4)},
		{Coeff: 1, Symbols: []string{"c"}, Value: xmath.FromFloat(1e-8)},
	}
	ref := xmath.FromFloat(1 + 1e-4 + 1e-8)
	tr, err := TruncateSDG(terms, ref, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Kept) != 1 || tr.Kept[0].Symbols[0] != "a" {
		t.Errorf("kept %v", tr.Kept)
	}
	if tr.Formula() != "a" {
		t.Errorf("formula %q", tr.Formula())
	}
}

func TestSDGTruncationBadReference(t *testing.T) {
	terms := []Term{{Coeff: 1, Symbols: []string{"a"}, Value: xmath.FromFloat(1)}}
	// Reference off by 2×: criterion unreachable → error.
	if _, err := TruncateSDG(terms, xmath.FromFloat(2), 0.01); err == nil {
		t.Error("bad reference not detected")
	}
	// Zero reference keeps nothing.
	tr, err := TruncateSDG(terms, xmath.XFloat{}, 0.01)
	if err != nil || len(tr.Kept) != 0 {
		t.Errorf("zero ref: %v %v", tr, err)
	}
	if _, err := TruncateSDG(terms, xmath.FromFloat(1), 0); err == nil {
		t.Error("ε=0 accepted")
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		t    Term
		want string
	}{
		{Term{Coeff: 1, Symbols: []string{"g1", "c2"}}, "g1·c2"},
		{Term{Coeff: -1, Symbols: []string{"g1"}}, "-g1"},
		{Term{Coeff: 2, Symbols: []string{"gm"}}, "2·gm"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestCancellationCombines(t *testing.T) {
	// A floating conductance between two non-ground nodes in a 2-node
	// circuit produces ±g terms across permutations that must combine,
	// never appear twice.
	c := circuit.New("t")
	c.AddG("ga", "a", "0", 1e-3).
		AddG("gb", "b", "0", 2e-3).
		AddG("gab", "a", "b", 5e-4)
	den, err := detTerms(c)
	if err != nil {
		t.Fatal(err)
	}
	// det = (ga+gab)(gb+gab) − gab² = ga·gb + ga·gab + gab·gb (gab²
	// cancels). 3 terms.
	if n := den.NumTerms(); n != 3 {
		for _, ts := range den.ByPower {
			for _, x := range ts {
				t.Logf("term: %s = %v", x, x.Value)
			}
		}
		t.Errorf("terms = %d, want 3", n)
	}
	for _, x := range den.ByPower[0] {
		if len(x.Symbols) == 2 && x.Symbols[0] == "gab" && x.Symbols[1] == "gab" {
			t.Error("gab² survived cancellation")
		}
	}
}

func TestFormulaReadable(t *testing.T) {
	tr := Truncation{Kept: []Term{
		{Coeff: 1, Symbols: []string{"g1", "g2"}},
		{Coeff: -1, Symbols: []string{"gm1", "c2"}},
	}}
	if got := tr.Formula(); got != "g1·g2 + -gm1·c2" {
		t.Errorf("formula %q", got)
	}
	if got := (Truncation{}).Formula(); got != "0" {
		t.Errorf("empty formula %q", got)
	}
}

func TestOTASymbolicFeasible(t *testing.T) {
	// The OTA is at the practical edge of term enumeration; ensure it
	// completes and matches the adaptive reference at s^0.
	if testing.Short() {
		t.Skip("term enumeration is slow")
	}
	c := circuits.OTA()
	inp, _, out := circuits.OTAInputs()
	num, _, err := VoltageGain(c, inp, out)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := nodal.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := sys.VoltageGain(c, inp, out)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Generate(tf.Num, core.Config{
		InitFScale: 1 / c.MeanCapacitance(), InitGScale: 1 / c.MeanConductance(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := num.Coefficient(0), ref.Poly()[0]; !got.ApproxEqual(want, 1e-5) {
		t.Errorf("s^0: symbolic %v vs reference %v", got, want)
	}
	t.Logf("OTA numerator: %d terms", num.NumTerms())
}

func TestUnknownNodesRejected(t *testing.T) {
	c := circuit.New("t")
	c.AddG("g", "a", "0", 1)
	if _, _, err := VoltageGain(c, "a", "zz"); err == nil {
		t.Error("unknown node accepted")
	}
}

// detTerms expands det Y of c into its combined symbolic terms.
func detTerms(c *circuit.Circuit) (*Analysis, error) {
	m, err := buildMatrix(c)
	if err != nil {
		return nil, err
	}
	var raw []rawTerm
	expandDet(m, rawTerm{sign: 1, value: 1}, &raw)
	return &Analysis{Name: "denominator", ByPower: collect(raw)}, nil
}
