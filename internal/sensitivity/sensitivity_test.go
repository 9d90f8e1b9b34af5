package sensitivity

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/bode"
	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/pkg/engine"
)

func dividerCircuit() *circuit.Circuit {
	c := circuit.New("div")
	c.AddG("g1", "in", "out", 1e-3).
		AddG("g2", "out", "0", 3e-3).
		AddC("c1", "out", "0", 1e-12)
	return c
}

func TestDividerAnalyticSensitivities(t *testing.T) {
	// H(0) = g1/(g1+g2): S_g1 = g2/(g1+g2) = 0.75, S_g2 = −0.75,
	// S_c1 = 0 at DC-ish frequencies.
	c := dividerCircuit()
	spec := engine.Spec{Kind: "vgain", In: "in", Out: "out"}
	sens, err := Analyze(c, spec, []float64{1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]complex128{}
	for _, s := range sens {
		byName[s.Element] = s.S[0]
	}
	if got := real(byName["g1"]); math.Abs(got-0.75) > 1e-4 {
		t.Errorf("S_g1 = %g, want 0.75", got)
	}
	if got := real(byName["g2"]); math.Abs(got+0.75) > 1e-4 {
		t.Errorf("S_g2 = %g, want -0.75", got)
	}
	if got := cmplx.Abs(byName["c1"]); got > 1e-4 {
		t.Errorf("S_c1 = %g, want ~0", got)
	}
}

func TestEulerHomogeneitySumRule(t *testing.T) {
	// H is a ratio of polynomials homogeneous of the same degree in the
	// admittances, so scaling every element value by α at a fixed
	// frequency... does NOT leave H fixed (capacitor admittances scale
	// with s too); the exact invariant: scaling all G AND C by α leaves
	// H(s) unchanged ⇒ Σ_x S_x(jω) = 0 over ALL elements.
	c := dividerCircuit()
	spec := engine.Spec{Kind: "vgain", In: "in", Out: "out"}
	freqs := bode.LogSpace(1e3, 1e9, 5)
	sens, err := Analyze(c, spec, freqs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range freqs {
		var sum complex128
		for _, s := range sens {
			sum += s.S[i]
		}
		if cmplx.Abs(sum) > 1e-3 {
			t.Errorf("Σ S at %g Hz = %v, want 0 (Euler homogeneity)", freqs[i], sum)
		}
	}
}

func TestEulerSumRuleOTA(t *testing.T) {
	// The same invariant on an active circuit with gm elements.
	c := circuits.OTA()
	spec := engine.Spec{Kind: "diffgain", In: "inp", Inn: "inn", Out: "out"}
	freqs := []float64{1e4, 1e7}
	sens, err := Analyze(c, spec, freqs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range freqs {
		var sum complex128
		for _, s := range sens {
			sum += s.S[i]
		}
		if cmplx.Abs(sum) > 5e-3 {
			t.Errorf("Σ S at %g Hz = %v, want 0", freqs[i], sum)
		}
	}
}

func TestRankingOrdered(t *testing.T) {
	c := dividerCircuit()
	spec := engine.Spec{Kind: "vgain", In: "in", Out: "out"}
	sens, err := Analyze(c, spec, []float64{1e3, 1e8}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sens); i++ {
		if sens[i].MaxAbs > sens[i-1].MaxAbs {
			t.Errorf("ranking unordered at %d", i)
		}
	}
}

func TestBadStepRejected(t *testing.T) {
	c := dividerCircuit()
	spec := engine.Spec{Kind: "vgain", In: "in", Out: "out"}
	if _, err := Analyze(c, spec, []float64{1}, Config{RelStep: 0.9}); err == nil {
		t.Error("huge step accepted")
	}
	if _, err := Analyze(c, spec, []float64{1}, Config{RelStep: -0.1}); err == nil {
		t.Error("negative step accepted")
	}
}
