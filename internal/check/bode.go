package check

import (
	"context"
	"math"

	"repro/internal/bode"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/mna"
	"repro/internal/poly"
)

// defaultBodePoints is the sample count of the BodeVsAC sweep: dense
// enough that the phase unwrappers of the two paths cannot diverge by a
// full turn between samples.
const defaultBodePoints = 61

// FreqRange estimates the frequency band containing a denominator's
// pole magnitudes from consecutive nonzero coefficient ratios
// |c_i/c_{i+1}|/2π, padded by two decades on each side. It falls back to
// 1 Hz..1 MHz for degenerate polynomials (degree < 1).
func FreqRange(den poly.XPoly) (f0, f1 float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i+1 < len(den); i++ {
		if den[i].Zero() || den[i+1].Zero() {
			continue
		}
		f := den[i].Div(den[i+1]).Abs().MulFloat(1 / (2 * math.Pi)).Float64()
		if f <= 0 || math.IsInf(f, 0) {
			continue
		}
		lo = math.Min(lo, f)
		hi = math.Max(hi, f)
	}
	if math.IsInf(lo, 1) {
		return 1, 1e6
	}
	return lo / 100, hi * 100
}

// BodeVsAC reconstructs the frequency response H(jω) from the generated
// coefficient polynomials and compares it against a direct MNA AC
// analysis of the same circuit driven by an independently added unit
// source — the paper's Fig. 2 validation ("interpolation ... and those
// obtained through a commercial electrical simulator") as a
// machine-checked invariant. The MNA path shares no code with the
// cofactor interpolation pipeline beyond the sparse LU core, so
// agreement is meaningful.
//
// kind selects the drive the transfer function assumes (see
// mna.Response): "vgain" adds an ideal 1 V source at in, "diffgain" a
// floating 1 V source between in and inn, "transz" a 1 A current source
// into in, and "mna" circuits drive themselves. The circuit is cloned;
// the original is never modified. Tolerances of 0 select 0.05 dB and
// 0.5° (the thresholds the µA741 Fig. 2 reproduction holds).
func BodeVsAC(c *circuit.Circuit, kind, in, inn, out string, num, den *core.Result, tolDB, tolDeg float64, rep *Report) {
	if tolDB == 0 {
		tolDB = 0.05
	}
	if tolDeg == 0 {
		tolDeg = 0.5
	}
	np, dp := num.Poly(), den.Poly()
	rep.assert(dp.Degree() >= 0, "bode", "%s: denominator is identically zero", den.Name)
	if dp.Degree() < 0 {
		return
	}
	f0, f1 := FreqRange(dp)
	freqs := bode.LogSpace(f0, f1, defaultBodePoints)
	fromPolys, err := bode.FromPolys(np, dp, freqs)
	rep.assert(err == nil, "bode", "%s/%s: reconstructed response: %v", num.Name, den.Name, err)
	if err != nil {
		return
	}

	h, err := mna.Response(context.Background(), c, kind, in, inn, out, freqs)
	rep.assert(err == nil, "bode", "MNA AC analysis: %v", err)
	if err != nil {
		return
	}
	direct := bode.FromComplexResponse(freqs, h)
	magErr, phsErr, err := bode.Compare(fromPolys, direct)
	rep.assert(err == nil, "bode", "compare: %v", err)
	rep.assert(magErr <= tolDB, "bode",
		"%s/%s: |ΔdB| = %.3g exceeds %.3g over %0.3g..%0.3g Hz", num.Name, den.Name, magErr, tolDB, f0, f1)
	rep.assert(phsErr <= tolDeg, "bode",
		"%s/%s: |Δphase| = %.3g° exceeds %.3g° over %0.3g..%0.3g Hz", num.Name, den.Name, phsErr, tolDeg, f0, f1)
}
