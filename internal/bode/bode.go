// Package bode computes frequency responses — magnitude and unwrapped
// phase — from interpolated coefficient polynomials and from direct AC
// analysis, and compares the two. This reproduces the paper's Fig. 2
// validation: "the Bode diagrams obtained from the interpolation of
// numerator and denominator ... and those obtained through a commercial
// electrical simulator".
package bode

import (
	"fmt"
	"math"

	"repro/internal/poly"
)

// Point is one frequency-response sample.
type Point struct {
	FreqHz   float64
	MagDB    float64
	PhaseDeg float64 // unwrapped
}

// LogSpace returns n logarithmically spaced frequencies from f0 to f1
// inclusive.
func LogSpace(f0, f1 float64, n int) []float64 {
	if n < 2 || f0 <= 0 || f1 <= f0 {
		panic("bode: need n ≥ 2 and 0 < f0 < f1")
	}
	out := make([]float64, n)
	l0, l1 := math.Log10(f0), math.Log10(f1)
	for i := range out {
		out[i] = math.Pow(10, l0+(l1-l0)*float64(i)/float64(n-1))
	}
	return out
}

// FromPolys evaluates H(jω) = N(jω)/D(jω) from extended-range
// coefficient polynomials at the given frequencies. The extended-range
// Horner evaluation is immune to the coefficient magnitudes (µA741
// coefficients span 1e-90…1e-522, far outside float64).
func FromPolys(num, den poly.XPoly, freqsHz []float64) ([]Point, error) {
	pts := make([]Point, 0, len(freqsHz))
	unwrap := newUnwrapper()
	for _, f := range freqsHz {
		w := 2 * math.Pi * f
		n := num.EvalJOmega(w)
		d := den.EvalJOmega(w)
		if d.Zero() {
			return nil, fmt.Errorf("bode: denominator vanishes at %g Hz", f)
		}
		h := n.Div(d)
		mag := h.AbsX()
		magDB := -math.Inf(1)
		if !mag.Zero() {
			magDB = 20 * mag.Log10()
		}
		phase := math.Atan2(h.Imag().Float64(), h.Real().Float64()) * 180 / math.Pi
		pts = append(pts, Point{FreqHz: f, MagDB: magDB, PhaseDeg: unwrap(phase)})
	}
	return pts, nil
}

// FromComplexResponse converts direct AC-analysis samples (e.g. from
// internal/mna) to Bode points with the same unwrapping convention.
func FromComplexResponse(freqsHz []float64, h []complex128) []Point {
	pts := make([]Point, 0, len(freqsHz))
	unwrap := newUnwrapper()
	for i, f := range freqsHz {
		mag := math.Hypot(real(h[i]), imag(h[i]))
		magDB := -math.Inf(1)
		if mag > 0 {
			magDB = 20 * math.Log10(mag)
		}
		phase := math.Atan2(imag(h[i]), real(h[i])) * 180 / math.Pi
		pts = append(pts, Point{FreqHz: f, MagDB: magDB, PhaseDeg: unwrap(phase)})
	}
	return pts
}

// newUnwrapper returns a stateful phase unwrapper: each call shifts the
// raw (−180°, 180°] phase by multiples of 360° to stay closest to the
// previous sample, producing the continuous curves of Fig. 2 (which run
// down to −800°).
func newUnwrapper() func(float64) float64 {
	first := true
	prev := 0.0
	return func(raw float64) float64 {
		if first {
			first = false
			prev = raw
			return raw
		}
		p := raw
		for p-prev > 180 {
			p -= 360
		}
		for prev-p > 180 {
			p += 360
		}
		prev = p
		return p
	}
}

// Margins summarizes the stability margins of an (open-loop) response.
type Margins struct {
	// UnityGainHz is the frequency where |H| crosses 0 dB (NaN when the
	// response never crosses).
	UnityGainHz float64
	// PhaseMarginDeg is 180° + phase at the unity-gain crossing.
	PhaseMarginDeg float64
	// GainMarginDB is −|H| dB at the first −180° phase crossing (NaN
	// when the phase never reaches −180°).
	GainMarginDB float64
	// Phase180Hz is the frequency of that phase crossing.
	Phase180Hz float64
}

// GainPhaseMargins extracts loop-stability margins from a sampled
// response (log-interpolating between samples). The response should be
// the open-loop gain.
func GainPhaseMargins(pts []Point) Margins {
	m := Margins{
		UnityGainHz:    math.NaN(),
		PhaseMarginDeg: math.NaN(),
		GainMarginDB:   math.NaN(),
		Phase180Hz:     math.NaN(),
	}
	interp := func(a, b Point, t float64) (fHz, mag, ph float64) {
		f := a.FreqHz * math.Pow(b.FreqHz/a.FreqHz, t)
		return f, a.MagDB + t*(b.MagDB-a.MagDB), a.PhaseDeg + t*(b.PhaseDeg-a.PhaseDeg)
	}
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if math.IsNaN(m.UnityGainHz) && a.MagDB >= 0 && b.MagDB < 0 {
			t := a.MagDB / (a.MagDB - b.MagDB)
			f, _, ph := interp(a, b, t)
			m.UnityGainHz = f
			m.PhaseMarginDeg = 180 + ph
		}
		if math.IsNaN(m.Phase180Hz) && a.PhaseDeg > -180 && b.PhaseDeg <= -180 {
			t := (a.PhaseDeg + 180) / (a.PhaseDeg - b.PhaseDeg)
			f, mag, _ := interp(a, b, t)
			m.Phase180Hz = f
			m.GainMarginDB = -mag
		}
	}
	return m
}

// Compare returns the worst magnitude (dB) and phase (degrees)
// deviations between two responses sampled at the same frequencies.
func Compare(a, b []Point) (maxMagDB, maxPhaseDeg float64, err error) {
	if len(a) != len(b) {
		return 0, 0, fmt.Errorf("bode: length mismatch %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].FreqHz != b[i].FreqHz {
			return 0, 0, fmt.Errorf("bode: frequency mismatch at %d: %g vs %g", i, a[i].FreqHz, b[i].FreqHz)
		}
		if d := math.Abs(a[i].MagDB - b[i].MagDB); d > maxMagDB {
			maxMagDB = d
		}
		if d := math.Abs(a[i].PhaseDeg - b[i].PhaseDeg); d > maxPhaseDeg {
			maxPhaseDeg = d
		}
	}
	return maxMagDB, maxPhaseDeg, nil
}
