// The shape claims of every paper table, asserted programmatically.
package paper

import (
	"math"
	"testing"

	"repro/internal/bode"
	"repro/internal/core"
)

func TestTable1aShape(t *testing.T) {
	tb, err := OTATable1()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's exhibit: "many coefficients have a non-zero imaginary
	// component ... most calculated coefficients have the same order of
	// magnitude than the imaginary parts". Count unit-circle outputs
	// whose imaginary residue is within two decades of the real part.
	noisy := 0
	for i := 2; i < len(tb.UnitDen.Raw); i++ {
		re := tb.UnitDen.Raw[i].Real().Abs()
		im := tb.UnitDen.Raw[i].Imag().Abs()
		if re.Zero() || im.Zero() {
			continue
		}
		if im.Div(re).Float64() > 1e-2 {
			noisy++
		}
	}
	if noisy < 3 {
		t.Errorf("only %d noisy coefficients; Table 1a phenomenon absent", noisy)
	}
	// s^0 must still be clean: imaginary residue many decades below.
	re0 := tb.UnitDen.Raw[0].Real().Abs()
	im0 := tb.UnitDen.Raw[0].Imag().Abs()
	if !im0.Zero() && im0.Div(re0).Float64() > 1e-10 {
		t.Errorf("s^0 imaginary residue too large")
	}
}

func TestTable1bShape(t *testing.T) {
	tb, err := OTATable1()
	if err != nil {
		t.Fatal(err)
	}
	// A valid region exists, anchored at s^0, several coefficients wide.
	if tb.DenLo != 0 {
		t.Errorf("denominator region starts at s^%d", tb.DenLo)
	}
	if tb.DenHi < 3 {
		t.Errorf("denominator region only reaches s^%d", tb.DenHi)
	}
	// The paper's ratio remark: consecutive valid denormalized
	// coefficients differ by ~1e6..1e12.
	for i := tb.DenLo; i < tb.DenHi; i++ {
		a := tb.FixedDen.Denormalized[i].Abs()
		b := tb.FixedDen.Denormalized[i+1].Abs()
		if a.Zero() || b.Zero() {
			continue
		}
		ratio := a.Div(b).Log10()
		if ratio < 4 || ratio > 14 {
			t.Errorf("ratio p%d/p%d = 1e%.1f outside the integrated-circuit range", i, i+1, ratio)
		}
	}
	// Beyond the window the fixed scaling leaves noise: the region must
	// not cover the whole estimate.
	if tb.DenHi >= len(tb.FixedDen.Normalized)-1 {
		t.Errorf("single scaling covered the whole order estimate; Table 2's motivation vanishes")
	}
}

func TestTables23Shape(t *testing.T) {
	den, m, err := UA741Denominator(false)
	if err != nil {
		t.Fatal(err)
	}
	if m < 40 {
		t.Errorf("homogeneity degree %d; µA741 class should exceed 40", m)
	}
	// The tiling claims: wide first region near the bottom, a handful of
	// iterations, everything classified, order ≈ 48.
	first := den.Iterations[0]
	if first.Lo > 5 || first.Hi-first.Lo < 8 {
		t.Errorf("first region [%d,%d]", first.Lo, first.Hi)
	}
	if n := len(den.Iterations); n < 3 || n > 30 {
		t.Errorf("%d iterations", n)
	}
	valid := 0
	for _, c := range den.Coeffs {
		switch c.Status {
		case core.Valid:
			valid++
		case core.Unknown:
			t.Error("unresolved coefficient")
		}
	}
	if valid < 45 {
		t.Errorf("only %d valid coefficients", valid)
	}
	if den.Order() < 40 {
		t.Errorf("order %d", den.Order())
	}
	if den.Disagreements != 0 {
		t.Errorf("%d overlap disagreements", den.Disagreements)
	}
	// Coefficient span: hundreds of decades (the paper: 1e-90..1e-522).
	span := den.Poly()[0].Abs().Log10() - den.Poly()[den.Order()].Abs().Log10()
	if span < 300 {
		t.Errorf("coefficient span only %.0f decades", span)
	}
}

func TestSection33ReductionShape(t *testing.T) {
	with, _, err := UA741Denominator(false)
	if err != nil {
		t.Fatal(err)
	}
	without, _, err := UA741Denominator(true)
	if err != nil {
		t.Fatal(err)
	}
	// With reduction, the point count is non-increasing and eventually
	// drops; without, it stays at the full count.
	k0 := with.Iterations[0].K
	dropped := false
	for _, it := range with.Iterations[1:] {
		if it.K > k0 {
			t.Errorf("K grew: %d after %d", it.K, k0)
		}
		if it.K < k0 {
			dropped = true
		}
	}
	if !dropped {
		t.Error("reduction never shrank an interpolation")
	}
	for _, it := range without.Iterations {
		if it.K != without.Iterations[0].K {
			t.Errorf("K changed without reduction: %d", it.K)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	c, spec := UA741()
	d, err := Fig2(c, spec, bode.LogSpace(1, 1e8, 41))
	if err != nil {
		t.Fatal(err)
	}
	if d.MagErrDB > 0.05 || d.PhsErr > 0.5 {
		t.Errorf("deviation %g dB / %g°; the paper's 'perfect matching' claim fails", d.MagErrDB, d.PhsErr)
	}
	// The µA741 response shape: high DC gain, magnitude decreasing
	// through the band, phase running far past -90°.
	if d.Interp[0].MagDB < 60 {
		t.Errorf("DC gain %g dB", d.Interp[0].MagDB)
	}
	minPhase := 0.0
	for _, p := range d.Interp {
		if p.PhaseDeg < minPhase {
			minPhase = p.PhaseDeg
		}
	}
	if minPhase > -180 {
		t.Errorf("phase only reaches %g°; Fig. 2 runs far below", minPhase)
	}
	if math.Abs(d.Freqs[0]-1) > 1e-9 || math.Abs(d.Freqs[len(d.Freqs)-1]-1e8)/1e8 > 1e-9 {
		t.Errorf("band %g..%g", d.Freqs[0], d.Freqs[len(d.Freqs)-1])
	}
}
