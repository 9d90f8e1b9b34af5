package bode

import (
	"math"
	"testing"

	"repro/internal/poly"
	"repro/internal/xmath"
)

func xc(s complex128) xmath.XComplex { return xmath.FromComplex(s) }

func TestLogSpace(t *testing.T) {
	f := LogSpace(1, 1e4, 5)
	want := []float64{1, 10, 100, 1000, 10000}
	for i := range want {
		if math.Abs(f[i]-want[i])/want[i] > 1e-12 {
			t.Errorf("f[%d] = %g, want %g", i, f[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("bad args did not panic")
		}
	}()
	LogSpace(10, 1, 5)
}

func TestFirstOrderLowpass(t *testing.T) {
	// H = 1/(1 + s/ω0), ω0 = 2π·1 kHz.
	w0 := 2 * math.Pi * 1e3
	num := poly.NewX(1)
	den := poly.NewX(1, 1/w0)
	pts, err := FromPolys(num, den, []float64{1, 1e3, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pts[0].MagDB) > 0.01 {
		t.Errorf("passband %g dB", pts[0].MagDB)
	}
	if math.Abs(pts[1].MagDB+3.0103) > 0.01 {
		t.Errorf("corner %g dB, want -3.01", pts[1].MagDB)
	}
	if math.Abs(pts[1].PhaseDeg+45) > 0.1 {
		t.Errorf("corner phase %g, want -45", pts[1].PhaseDeg)
	}
	if math.Abs(pts[2].MagDB+60) > 0.1 {
		t.Errorf("stopband %g dB, want -60", pts[2].MagDB)
	}
}

func TestPhaseUnwrapping(t *testing.T) {
	// Three cascaded poles: phase runs to -270°, beyond the atan2 range;
	// unwrapping must keep it monotone.
	w0 := 2 * math.Pi * 1e3
	pole := poly.NewX(1, 1/w0)
	den := pole.Mul(pole).Mul(pole)
	pts, err := FromPolys(poly.NewX(1), den, LogSpace(1, 1e7, 100))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].PhaseDeg > pts[i-1].PhaseDeg+1e-9 {
			t.Fatalf("phase not monotone at %g Hz: %g after %g", pts[i].FreqHz, pts[i].PhaseDeg, pts[i-1].PhaseDeg)
		}
	}
	last := pts[len(pts)-1].PhaseDeg
	if math.Abs(last+270) > 2 {
		t.Errorf("final phase %g, want ≈ -270", last)
	}
}

func TestFromComplexResponseMatchesFromPolys(t *testing.T) {
	w0 := 2 * math.Pi * 1e3
	num, den := poly.NewX(1), poly.NewX(1, 1/w0)
	freqs := LogSpace(1, 1e6, 30)
	a, err := FromPolys(num, den, freqs)
	if err != nil {
		t.Fatal(err)
	}
	h := make([]complex128, len(freqs))
	for i, f := range freqs {
		s := complex(0, 2*math.Pi*f)
		h[i] = num.Eval(xc(s)).Div(den.Eval(xc(s))).Complex128()
	}
	b := FromComplexResponse(freqs, h)
	magErr, phErr, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if magErr > 1e-9 || phErr > 1e-9 {
		t.Errorf("mismatch: %g dB, %g deg", magErr, phErr)
	}
}

func TestCompareErrors(t *testing.T) {
	a := []Point{{FreqHz: 1}}
	if _, _, err := Compare(a, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	b := []Point{{FreqHz: 2}}
	if _, _, err := Compare(a, b); err == nil {
		t.Error("frequency mismatch accepted")
	}
}

func TestGainPhaseMargins(t *testing.T) {
	// Two-pole open loop: A0 = 1000, poles at 1 kHz and 1 MHz.
	// Unity gain ≈ A0·f1 = 1 MHz (where the second pole sits), so the
	// phase margin ≈ 45°.
	w1 := 2 * math.Pi * 1e3
	w2 := 2 * math.Pi * 1e6
	den := poly.NewX(1, 1/w1).Mul(poly.NewX(1, 1/w2))
	num := poly.NewX(1000)
	pts, err := FromPolys(num, den, LogSpace(10, 1e9, 400))
	if err != nil {
		t.Fatal(err)
	}
	m := GainPhaseMargins(pts)
	if math.Abs(m.UnityGainHz-0.786e6)/0.786e6 > 0.05 {
		// |H(jw)| = 1 → w = w2·0.786 for this two-pole shape.
		t.Errorf("unity gain at %g Hz", m.UnityGainHz)
	}
	if m.PhaseMarginDeg < 45 || m.PhaseMarginDeg > 60 {
		t.Errorf("phase margin %g°, want ≈ 52°", m.PhaseMarginDeg)
	}
	// Phase never reaches −180° for a two-pole system.
	if !math.IsNaN(m.GainMarginDB) {
		t.Errorf("gain margin %g dB for a two-pole loop", m.GainMarginDB)
	}
}

func TestMarginsThreePole(t *testing.T) {
	// Three coincident poles at 1 kHz with gain 1e4: phase hits −180°
	// within the sweep, giving a finite gain margin.
	w1 := 2 * math.Pi * 1e3
	pole := poly.NewX(1, 1/w1)
	den := pole.Mul(pole).Mul(pole)
	pts, err := FromPolys(poly.NewX(1e4), den, LogSpace(10, 1e8, 600))
	if err != nil {
		t.Fatal(err)
	}
	m := GainPhaseMargins(pts)
	if math.IsNaN(m.Phase180Hz) {
		t.Fatal("no -180° crossing found")
	}
	// −180° at √3·f1 (three poles each −60°): |H| there = 1e4/8 → gain
	// margin −62 dB (unstable if closed): margin must be negative.
	if math.Abs(m.Phase180Hz-math.Sqrt(3)*1e3)/1e3 > 0.1 {
		t.Errorf("-180° at %g Hz, want ≈ %g", m.Phase180Hz, math.Sqrt(3)*1e3)
	}
	if m.GainMarginDB > 0 {
		t.Errorf("gain margin %g dB should be negative here", m.GainMarginDB)
	}
}

func TestMarginsNoCrossing(t *testing.T) {
	// A response that never reaches 0 dB.
	pts, err := FromPolys(poly.NewX(0.5), poly.NewX(1, 1e-6), LogSpace(1, 1e9, 50))
	if err != nil {
		t.Fatal(err)
	}
	m := GainPhaseMargins(pts)
	if !math.IsNaN(m.UnityGainHz) {
		t.Errorf("unity crossing %g for a sub-unity response", m.UnityGainHz)
	}
}

func TestDenominatorZeroError(t *testing.T) {
	// An identically-zero denominator must be reported, not divided by.
	if _, err := FromPolys(poly.NewX(1), poly.NewX(0), []float64{100}); err == nil {
		t.Error("zero denominator not reported")
	}
}
