package dft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/xmath"
)

func TestUnitCirclePoints(t *testing.T) {
	pts := UnitCirclePoints(8)
	if pts[0] != 1 {
		t.Errorf("s_0 = %v, want exactly 1", pts[0])
	}
	if pts[4] != -1 {
		t.Errorf("s_4 = %v, want exactly -1", pts[4])
	}
	for i, p := range pts {
		if math.Abs(cmplx.Abs(p)-1) > 1e-15 {
			t.Errorf("|s_%d| = %v", i, cmplx.Abs(p))
		}
	}
	// Distinctness.
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if cmplx.Abs(pts[i]-pts[j]) < 1e-9 {
				t.Errorf("points %d and %d coincide", i, j)
			}
		}
	}
}

func TestUnitCirclePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for K=0")
		}
	}()
	UnitCirclePoints(0)
}

// realPoly is a real-coefficient polynomial, c[i] the coefficient of
// s^i: the sample values the transforms are checked on.
type realPoly []float64

// eval evaluates p at s by Horner's rule.
func (p realPoly) eval(s complex128) complex128 {
	var acc complex128
	for i := len(p) - 1; i >= 0; i-- {
		acc = acc*s + complex(p[i], 0)
	}
	return acc
}

// interpolate evaluates p on the unit circle and runs the inverse DFT,
// recovering the coefficients.
func interpolate(t *testing.T, p realPoly, k int) []complex128 {
	t.Helper()
	pts := UnitCirclePoints(k)
	vals := make([]complex128, k)
	for i, s := range pts {
		vals[i] = p.eval(s)
	}
	return InverseComplex(vals)
}

func TestInterpolationRecoversCoefficients(t *testing.T) {
	for _, k := range []int{4, 5, 7, 8, 16, 33} { // powers of two and not
		p := realPoly{1, -2, 3, 0.5}
		got := interpolate(t, p, k)
		for i := 0; i < k; i++ {
			want := 0.0
			if i < len(p) {
				want = p[i]
			}
			if math.Abs(real(got[i])-want) > 1e-12 || math.Abs(imag(got[i])) > 1e-12 {
				t.Errorf("K=%d: coeff %d = %v, want %g", k, i, got[i], want)
			}
		}
	}
}

func TestInverseExtendedRange(t *testing.T) {
	// Values near 1e+124 (the µA741 normalized scale): plain complex128
	// would survive, but verify the normalized path is exact anyway.
	k := 8
	pts := UnitCirclePoints(k)
	coeff := 1.28095e124
	vals := make([]xmath.XComplex, k)
	for i, s := range pts {
		// p(s) = c + c·s²
		vals[i] = xmath.FromComplex(complex(coeff, 0) * (1 + s*s))
	}
	out := Inverse(vals)
	if got := out[0].Real().Float64(); math.Abs(got-coeff)/coeff > 1e-12 {
		t.Errorf("p0 = %g", got)
	}
	if got := out[2].Real().Float64(); math.Abs(got-coeff)/coeff > 1e-12 {
		t.Errorf("p2 = %g", got)
	}
	if got := out[1].AbsX().Float64(); got > coeff*1e-12 {
		t.Errorf("p1 = %g, want ~0", got)
	}
}

func TestInverseBeyondFloat64(t *testing.T) {
	// Values of magnitude 1e400: impossible in complex128, must still invert.
	k := 4
	big := xmath.Pow10(400)
	vals := make([]xmath.XComplex, k)
	for i, s := range UnitCirclePoints(k) {
		vals[i] = xmath.FromXFloat(big).MulComplex(s) // p(s) = big·s
	}
	out := Inverse(vals)
	if got := out[1].AbsX().Log10(); math.Abs(got-400) > 1e-9 {
		t.Errorf("log10 p1 = %g, want 400", got)
	}
	for _, i := range []int{0, 2, 3} {
		if !out[i].AbsX().Zero() && out[i].AbsX().Log10() > 400-12 {
			t.Errorf("p%d = %v, want ~0", i, out[i])
		}
	}
}

func TestInverseZeroAndEmpty(t *testing.T) {
	if got := Inverse(nil); got != nil {
		t.Errorf("Inverse(nil) = %v", got)
	}
	out := Inverse(make([]xmath.XComplex, 5))
	for i, v := range out {
		if !v.Zero() {
			t.Errorf("all-zero input: out[%d] = %v", i, v)
		}
	}
}

func TestForwardInverseIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range []int{3, 4, 8, 10, 16, 21} {
		in := make([]complex128, k)
		for i := range in {
			in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		back := InverseComplex(Forward(in))
		for i := range in {
			if cmplx.Abs(back[i]-in[i]) > 1e-12 {
				t.Errorf("K=%d: round trip [%d] = %v, want %v", k, i, back[i], in[i])
			}
		}
	}
}

func TestFFTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := make([]complex128, 16)
	for i := range in {
		in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for _, sign := range []float64{-1, 1} {
		fft := fftRadix2(in, sign)
		dir := direct(in, sign)
		for i := range in {
			if cmplx.Abs(fft[i]-dir[i]) > 1e-11 {
				t.Errorf("sign %g: fft[%d] = %v, direct = %v", sign, i, fft[i], dir[i])
			}
		}
	}
}

func TestQuickInterpolationExact(t *testing.T) {
	f := func(c0, c1, c2 float64) bool {
		for _, v := range []float64{c0, c1, c2} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		p := realPoly{c0, c1, c2}
		k := 5
		pts := UnitCirclePoints(k)
		vals := make([]xmath.XComplex, k)
		for i, s := range pts {
			vals[i] = xmath.FromComplex(p.eval(s))
		}
		out := Inverse(vals)
		scale := math.Max(math.Max(math.Abs(c0), math.Abs(c1)), math.Abs(c2)) + 1e-300
		for i := 0; i < 3; i++ {
			if math.Abs(out[i].Real().Float64()-p[i]) > 1e-12*scale {
				return false
			}
		}
		return out[3].AbsX().Float64() <= 1e-12*scale && out[4].AbsX().Float64() <= 1e-12*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnitCirclePointsConjugateSymmetric(t *testing.T) {
	for _, k := range []int{2, 3, 8, 9, 49, 64} {
		pts := UnitCirclePoints(k)
		for i := 1; i < k; i++ {
			if got, want := pts[k-i], cmplx.Conj(pts[i]); got != want {
				t.Errorf("K=%d: s_%d = %v, want exact conj(s_%d) = %v", k, k-i, got, i, want)
			}
		}
	}
}

func TestHermitianHalf(t *testing.T) {
	for _, tc := range []struct{ k, want int }{
		{1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3}, {49, 25}, {64, 33},
	} {
		if got := HermitianHalf(tc.k); got != tc.want {
			t.Errorf("HermitianHalf(%d) = %d, want %d", tc.k, got, tc.want)
		}
	}
}

func TestHermitianHalfPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for K=0")
		}
	}()
	HermitianHalf(0)
}

func TestMirrorHermitianLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for wrong half length")
		}
	}()
	MirrorHermitian(make([]xmath.XComplex, 2), 5)
}

// TestHermitianInverseRecoversRealPolynomial checks the half-spectrum
// path end to end: evaluating a real-coefficient polynomial only at the
// non-redundant points and mirroring recovers the same coefficients a
// full evaluation sweep does.
func TestHermitianInverseRecoversRealPolynomial(t *testing.T) {
	for _, k := range []int{4, 5, 8, 9, 49} {
		p := realPoly{1, -2, 3, 0.5}
		pts := UnitCirclePoints(k)
		half := make([]xmath.XComplex, HermitianHalf(k))
		for i := range half {
			half[i] = xmath.FromComplex(p.eval(pts[i]))
		}
		out := HermitianInverse(half, k)
		if len(out) != k {
			t.Fatalf("K=%d: got %d outputs", k, len(out))
		}
		for i := 0; i < k; i++ {
			want := 0.0
			if i < len(p) {
				want = p[i]
			}
			if math.Abs(out[i].Real().Float64()-want) > 1e-12 || out[i].Imag().Abs().Float64() > 1e-12 {
				t.Errorf("K=%d: coeff %d = %v, want %g", k, i, out[i], want)
			}
		}
	}
}

// TestHermitianInverseMatchesMirroredInverse pins the definition:
// HermitianInverse(half, k) is exactly Inverse of the mirrored spectrum.
func TestHermitianInverseMatchesMirroredInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{3, 4, 7, 12} {
		half := make([]xmath.XComplex, HermitianHalf(k))
		for i := range half {
			half[i] = xmath.FromComplex(complex(rng.NormFloat64(), rng.NormFloat64()))
		}
		full := MirrorHermitian(half, k)
		want := Inverse(full)
		got := HermitianInverse(half, k)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("K=%d: output %d = %v, want bit-identical %v", k, i, got[i], want[i])
			}
		}
	}
}

// TestBluesteinMatchesDirect cross-checks the chirp-z path against the
// O(K²) reference sum on lengths spanning the dispatch threshold and
// both twiddle signs.
func TestBluesteinMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{33, 49, 63, 100, 129} {
		in := make([]complex128, k)
		scale := 0.0
		for i := range in {
			in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			scale = math.Max(scale, cmplx.Abs(in[i]))
		}
		for _, sign := range []float64{-1, 1} {
			blu := bluestein(in, sign)
			dir := direct(in, sign)
			tol := 1e-11 * scale * float64(k)
			for i := range in {
				if cmplx.Abs(blu[i]-dir[i]) > tol {
					t.Errorf("K=%d sign %g: bluestein[%d] = %v, direct = %v", k, sign, i, blu[i], dir[i])
				}
			}
		}
	}
}

// TestTransformDispatch pins the routing: power-of-two lengths use the
// radix-2 FFT, short non-power-of-two lengths the direct sum, and longer
// ones Bluestein — all agreeing with the reference sum.
func TestTransformDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{5, 31, 32, 33, 49, 64} {
		in := make([]complex128, k)
		for i := range in {
			in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got := transform(in, -1)
		want := direct(in, -1)
		for i := range in {
			if cmplx.Abs(got[i]-want[i]) > 1e-10*float64(k) {
				t.Errorf("K=%d: transform[%d] = %v, direct = %v", k, i, got[i], want[i])
			}
		}
	}
}

// benchSpectrum builds a deterministic complex input block.
func benchSpectrum(k int) []complex128 {
	in := make([]complex128, k)
	for i := range in {
		in[i] = complex(float64(i+1), float64(k-i))
	}
	return in
}

func BenchmarkTransformDirect49(b *testing.B) {
	in := benchSpectrum(49)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		direct(in, -1)
	}
}

func BenchmarkTransformBluestein49(b *testing.B) {
	in := benchSpectrum(49)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bluestein(in, -1)
	}
}

func BenchmarkTransformDirect201(b *testing.B) {
	in := benchSpectrum(201)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		direct(in, -1)
	}
}

func BenchmarkTransformBluestein201(b *testing.B) {
	in := benchSpectrum(201)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bluestein(in, -1)
	}
}
