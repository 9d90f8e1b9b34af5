package poly

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/xmath"
)

func TestDegreeAndTrim(t *testing.T) {
	cases := []struct {
		p    XPoly
		want int
	}{
		{NewX(), -1},
		{NewX(0), -1},
		{NewX(0, 0, 0), -1},
		{NewX(5), 0},
		{NewX(1, 2, 3), 2},
		{NewX(1, 2, 0, 0), 1},
	}
	for _, c := range cases {
		if got := c.p.Degree(); got != c.want {
			t.Errorf("Degree(%v) = %d, want %d", c.p, got, c.want)
		}
		if got := c.p.Trim(); got.Degree() != c.want || len(got) != c.want+1 {
			t.Errorf("Trim(%v) = %v", c.p, got)
		}
	}
}

// evalC evaluates p at a complex128 point.
func evalC(p XPoly, s complex128) complex128 { return p.Eval(fromC(s)).Complex128() }

// horner evaluates the float64 coefficients c at s in complex128.
func horner(c []float64, s complex128) complex128 {
	var acc complex128
	for i := len(c) - 1; i >= 0; i-- {
		acc = acc*s + complex(c[i], 0)
	}
	return acc
}

func TestEval(t *testing.T) {
	p := NewX(1, -2, 3) // 1 - 2s + 3s²
	if got := evalC(p, 2); got != complex(9, 0) {
		t.Errorf("p(2) = %v", got)
	}
	if got := evalC(p, 1i); got != complex(-2, -2) { // 1 - 2i + 3(-1)
		t.Errorf("p(i) = %v", got)
	}
	if got := evalC(NewX(), 5); got != 0 {
		t.Errorf("zero poly eval = %v", got)
	}
}

func TestAddSubMul(t *testing.T) {
	p := NewX(1, 2)
	q := NewX(3, 0, 4)
	if got := p.Add(q); !got.ApproxEqual(NewX(4, 2, 4), 0) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); !got.ApproxEqual(NewX(2, -2, 4), 0) {
		t.Errorf("Sub = %v", got)
	}
	// (1+2s)(3+4s²) = 3 + 6s + 4s² + 8s³
	if got := p.Mul(q); !got.ApproxEqual(NewX(3, 6, 4, 8), 0) {
		t.Errorf("Mul = %v", got)
	}
	if got := NewX().Mul(p); got.Degree() != -1 {
		t.Errorf("0·p = %v", got)
	}
}

func TestString(t *testing.T) {
	if got := NewX().String(); got != "0" {
		t.Errorf("zero String = %q", got)
	}
	if got := NewX(0, 0).String(); got != "0" {
		t.Errorf("all-zero String = %q", got)
	}
}

func TestXPolyEvalMatchesPoly(t *testing.T) {
	c := []float64{1e-3, 2, -4e5, 0.5}
	x := NewX(c...)
	for _, s := range []complex128{0, 1, -2 + 3i, 1e4i, 1e-6} {
		want := horner(c, s)
		got := evalC(x, s)
		if cmplx.Abs(got-want) > 1e-12*cmplx.Abs(want)+1e-300 {
			t.Errorf("XPoly eval at %v = %v, want %v", s, got, want)
		}
	}
}

func TestXPolyExtendedEval(t *testing.T) {
	// p(s) = 1e-300 + 1e-300·s evaluated at s = 1e300: float64 Horner would
	// overflow intermediate products; XPoly must return ~1 + 1e-300.
	x := NewX(1e-300, 1e-300)
	got := x.Eval(fromC(complex(1e300, 0)))
	if math.Abs(got.Real().Float64()-1) > 1e-12 {
		t.Errorf("extended eval = %v, want ~1", got)
	}
}

func TestNormalizeDenormalizeRoundTrip(t *testing.T) {
	p := NewX(3.5e-20, -1.2e-28, 8e-37)
	f, g, m := 1e9, 3.3e-5, 7
	q := p.Normalize(f, g, m)
	back := q.Denormalize(f, g, m)
	if !back.ApproxEqual(p, 1e-13) {
		t.Errorf("round trip failed: %v vs %v", back, p)
	}
}

func TestNormalizeLaw(t *testing.T) {
	// Directly check q_i = p_i f^i g^(M-i).
	p := NewX(2, 3, 5)
	f, g := 100.0, 10.0
	q := p.Normalize(f, g, 2)
	want := []float64{2 * 100, 3 * 100 * 10, 5 * 100 * 100}
	for i, w := range want {
		if got := q[i].Float64(); math.Abs(got-w)/w > 1e-14 {
			t.Errorf("q[%d] = %g, want %g", i, got, w)
		}
	}
}

func TestMaxAbs(t *testing.T) {
	p := NewX(1, -50, 3)
	v, i := p.MaxAbs()
	if i != 1 || v.Float64() != -50 {
		t.Errorf("MaxAbs = %v at %d", v, i)
	}
	if _, i := NewX().MaxAbs(); i != -1 {
		t.Errorf("MaxAbs of empty = %d", i)
	}
	if _, i := NewX(0, 0).MaxAbs(); i != -1 {
		t.Errorf("MaxAbs of zero poly = %d", i)
	}
}

func TestXPolyAddSub(t *testing.T) {
	p := NewX(1, 2)
	q := NewX(3, -2, 5)
	sum := p.Add(q)
	if sum[0].Float64() != 4 || sum[1].Float64() != 0 || sum[2].Float64() != 5 {
		t.Errorf("Add = %v", sum)
	}
	diff := sum.Sub(q)
	if !diff.ApproxEqual(NewX(1, 2, 0), 0) {
		t.Errorf("Sub = %v", diff)
	}
}

func TestXPolyString(t *testing.T) {
	got := NewX(1, 0, -2).String()
	if got != "1.00000e+00 + -2.00000e+00·s^2" {
		t.Errorf("String = %q", got)
	}
}

func fromC(c complex128) xmath.XComplex { return xmath.FromComplex(c) }

// quick properties

func TestQuickEvalLinearity(t *testing.T) {
	f := func(a, b, c, d, s float64) bool {
		for _, v := range []float64{a, b, c, d, s} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		p, q := NewX(a, b), NewX(c, d)
		lhs := evalC(p.Add(q), complex(s, 0))
		rhs := evalC(p, complex(s, 0)) + evalC(q, complex(s, 0))
		return cmplx.Abs(lhs-rhs) <= 1e-9*(1+cmplx.Abs(rhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulEvalHomomorphism(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e50 {
				return true
			}
		}
		p, q := NewX(a, b), NewX(c, d)
		s := complex(0.7, -1.3)
		lhs := evalC(p.Mul(q), s)
		rhs := evalC(p, s) * evalC(q, s)
		return cmplx.Abs(lhs-rhs) <= 1e-9*(1+cmplx.Abs(rhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNormalizeInverse(t *testing.T) {
	f := func(a, b, c float64, fRaw, gRaw uint8) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		fs := math.Pow(10, float64(fRaw%30)-15)
		gs := math.Pow(10, float64(gRaw%20)-10)
		p := NewX(a, b, c)
		return p.Normalize(fs, gs, 5).Denormalize(fs, gs, 5).ApproxEqual(p, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
