package xmath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference normalizations below are the Frexp/Ldexp formulations
// the exponent-bit fast paths must reproduce bit for bit, with the
// operations built on them the same way the production ones are.

func refNormComplex(m complex128, e int64) XComplex {
	re, im := real(m), imag(m)
	if math.IsNaN(re) || math.IsNaN(im) || math.IsInf(re, 0) || math.IsInf(im, 0) {
		panic(fmt.Sprintf("xmath: cannot represent %v", m))
	}
	a := math.Max(math.Abs(re), math.Abs(im))
	if a == 0 {
		return XComplex{}
	}
	_, fe := math.Frexp(a)
	shift := fe - 1
	return XComplex{mant: complex(math.Ldexp(re, -shift), math.Ldexp(im, -shift)), exp: e + int64(shift)}
}

func refFromFloat(v float64) XFloat {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("xmath: cannot represent %v", v))
	}
	if v == 0 {
		return XFloat{}
	}
	frac, e := math.Frexp(v)
	return XFloat{mant: frac * 2, exp: int64(e) - 1}
}

func refFromParts(mant float64, exp int64) XFloat {
	x := refFromFloat(mant)
	if x.mant == 0 {
		return x
	}
	x.exp += exp
	return x
}

func refAdd(x, y XFloat) XFloat {
	if x.mant == 0 {
		return y
	}
	if y.mant == 0 {
		return x
	}
	if x.exp < y.exp {
		x, y = y, x
	}
	d := x.exp - y.exp
	if d > 64 {
		return x
	}
	return refFromParts(x.mant+math.Ldexp(y.mant, -int(d)), x.exp)
}

func refMul(x, y XFloat) XFloat {
	if x.mant == 0 || y.mant == 0 {
		return XFloat{}
	}
	return refFromParts(x.mant*y.mant, x.exp+y.exp)
}

func refDiv(x, y XFloat) XFloat {
	if x.mant == 0 {
		return XFloat{}
	}
	return refFromParts(x.mant/y.mant, x.exp-y.exp)
}

func refCAdd(z, w XComplex) XComplex {
	if z.mant == 0 {
		return w
	}
	if w.mant == 0 {
		return z
	}
	if z.exp < w.exp {
		z, w = w, z
	}
	d := z.exp - w.exp
	if d > 64 {
		return z
	}
	scale := math.Ldexp(1, -int(d))
	return refNormComplex(z.mant+w.mant*complex(scale, 0), z.exp)
}

func refCMul(z, w XComplex) XComplex {
	if z.mant == 0 || w.mant == 0 {
		return XComplex{}
	}
	return refNormComplex(z.mant*w.mant, z.exp+w.exp)
}

func refCDiv(z, w XComplex) XComplex {
	if z.mant == 0 {
		return XComplex{}
	}
	return refNormComplex(z.mant/w.mant, z.exp-w.exp)
}

// outcome runs f, reporting a panic instead of a value.
func outcome[T any](f func() T) (v T, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return f(), false
}

// sameX reports bitwise equality of mantissa and exponent.
func sameX(a, b XFloat) bool {
	return math.Float64bits(a.mant) == math.Float64bits(b.mant) && a.exp == b.exp
}

func sameC(a, b XComplex) bool {
	return math.Float64bits(real(a.mant)) == math.Float64bits(real(b.mant)) &&
		math.Float64bits(imag(a.mant)) == math.Float64bits(imag(b.mant)) && a.exp == b.exp
}

// requireSame fails unless got and want agree: both panic, or both
// return values equal under same.
func requireSame[T any](t *testing.T, op string, got, want func() T, same func(a, b T) bool) {
	t.Helper()
	g, gp := outcome(got)
	w, wp := outcome(want)
	if gp != wp {
		t.Fatalf("%s: panicked=%v, reference panicked=%v", op, gp, wp)
	}
	if !gp && !same(g, w) {
		t.Fatalf("%s = %+v, reference %+v", op, g, w)
	}
}

// FuzzNormalize requires the exponent-bit normalizations to agree bit
// for bit with the Frexp/Ldexp references — equal mantissa bits, equal
// exponents, and a panic on the same non-finite inputs — through the
// constructors and every arithmetic operation of both types. The
// operands are built by the references, so each operation is checked on
// identical inputs.
func FuzzNormalize(f *testing.F) {
	negZero := math.Copysign(0, -1)
	minNormal := 0x1p-1022
	f.Add(0.0, negZero, negZero, 0.0, int64(0), int64(0))                           // ±0
	f.Add(1.5, 5e-324, 4e-320, -1.25, int64(7), int64(-7))                          // subnormal in either component
	f.Add(0x1p1000, 0x1p-22, -0x1p1000, 0x1.8p-23, int64(0), int64(0))              // smaller lands on / below the normal boundary
	f.Add(0x1p-22, math.Nextafter(0x1p1000, 0), 1.0, 0x1p-1022, int64(3), int64(0)) // just below the boundary, swapped
	f.Add(minNormal, -minNormal, 0x1p1022, 0x1.fp1022, int64(0), int64(1))          // biased exponents 1 and 2045
	f.Add(0x1.8p1023, 1.0, -math.MaxFloat64, math.MaxFloat64, int64(0), int64(0))   // biased exponent 2046
	f.Add(1.9999999999999998, -1.9999999999999998, 1.9999999999999998, 0.0, int64(-1), int64(1))
	f.Add(1.5, 0.25, 1.75, -0.5, int64(10), int64(10))                    // alignment gap d = 0
	f.Add(1.5, 0.25, 1.75, -0.5, int64(52), int64(0))                     // d = 52
	f.Add(1.5, 0.25, 1.75, -0.5, int64(0), int64(64))                     // d = 64
	f.Add(1.5, 0.25, 1.75, -0.5, int64(65), int64(0))                     // d = 65: the smaller operand vanishes
	f.Add(1.0, 1.0, 1.0, 1.0, int64(math.MaxInt64), int64(math.MinInt64)) // exponent difference overflows
	f.Add(math.NaN(), 1.0, 2.0, 3.0, int64(0), int64(0))
	f.Add(1.0, math.Inf(-1), math.Inf(1), math.NaN(), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, re1, im1, re2, im2 float64, e1, e2 int64) {
		z1, z2 := complex(re1, im1), complex(re2, im2)
		requireSame(t, "FromFloat", func() XFloat { return FromFloat(re1) }, func() XFloat { return refFromFloat(re1) }, sameX)
		requireSame(t, "FromParts", func() XFloat { return FromParts(im1, e1) }, func() XFloat { return refFromParts(im1, e1) }, sameX)
		requireSame(t, "CFromParts", func() XComplex { return CFromParts(z1, e1) }, func() XComplex { return refNormComplex(z1, e1) }, sameC)
		requireSame(t, "FromComplex", func() XComplex { return FromComplex(z2) }, func() XComplex { return refNormComplex(z2, 0) }, sameC)

		if x, bad := outcome(func() XFloat { return refFromParts(re1, e1) }); !bad {
			if y, bad := outcome(func() XFloat { return refFromParts(re2, e2) }); !bad {
				requireSame(t, "Mul", func() XFloat { return x.Mul(y) }, func() XFloat { return refMul(x, y) }, sameX)
				requireSame(t, "Add", func() XFloat { return x.Add(y) }, func() XFloat { return refAdd(x, y) }, sameX)
				requireSame(t, "Sub", func() XFloat { return x.Sub(y) }, func() XFloat { return refAdd(x, y.Neg()) }, sameX)
				if !y.Zero() {
					requireSame(t, "Div", func() XFloat { return x.Div(y) }, func() XFloat { return refDiv(x, y) }, sameX)
				}
			}
		}
		if z, bad := outcome(func() XComplex { return refNormComplex(z1, e1) }); !bad {
			requireSame(t, "MulComplex", func() XComplex { return z.MulComplex(z2) }, func() XComplex { return refCMul(z, refNormComplex(z2, 0)) }, sameC)
			if w, bad := outcome(func() XComplex { return refNormComplex(z2, e2) }); !bad {
				requireSame(t, "complex Mul", func() XComplex { return z.Mul(w) }, func() XComplex { return refCMul(z, w) }, sameC)
				requireSame(t, "complex Add", func() XComplex { return z.Add(w) }, func() XComplex { return refCAdd(z, w) }, sameC)
				requireSame(t, "complex Sub", func() XComplex { return z.Sub(w) }, func() XComplex { return refCAdd(z, w.Neg()) }, sameC)
				if !w.Zero() {
					requireSame(t, "complex Div", func() XComplex { return z.Div(w) }, func() XComplex { return refCDiv(z, w) }, sameC)
				}
			}
		}
	})
}

// TestNormalizeNonFinitePanics: the exponent-bit paths still refuse
// NaN and infinite inputs in every component position.
func TestNormalizeNonFinitePanics(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, p := outcome(func() XFloat { return FromFloat(v) }); !p {
			t.Errorf("FromFloat(%v) did not panic", v)
		}
		for _, m := range []complex128{complex(v, 1), complex(1, v), complex(v, 0), complex(0, v), complex(v, v)} {
			if _, p := outcome(func() XComplex { return CFromParts(m, 3) }); !p {
				t.Errorf("CFromParts(%v) did not panic", m)
			}
		}
	}
}

// TestNormalizeMatchesReference drives the constructors and Add/Mul of
// both types with random bit patterns weighted toward the fast paths'
// edges — exponent fields near 0, 1023 and 2046, one component far below
// the other, signed zeros — and requires the references' bits.
func TestNormalizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func() float64 {
		var be uint64
		switch rng.Intn(4) {
		case 0:
			be = uint64(rng.Intn(2048))
		case 1:
			be = uint64(rng.Intn(4))
		case 2:
			be = uint64(2043 + rng.Intn(4))
		default:
			be = uint64(1023 - 60 + rng.Intn(120))
		}
		if be == 0x7ff || rng.Intn(50) == 0 {
			be = 0 // subnormals and zeros, never NaN or Inf
		}
		bits := uint64(rng.Intn(2))<<63 | be<<52 | rng.Uint64()&(1<<52-1)
		if rng.Intn(20) == 0 {
			bits &= 1 << 63 // ±0
		}
		return math.Float64frombits(bits)
	}
	for k := 0; k < 200000; k++ {
		re1, im1, re2, im2 := draw(), draw(), draw(), draw()
		e1, e2 := int64(rng.Intn(200)-100), int64(rng.Intn(200)-100)
		if got, want := FromParts(re1, e1), refFromParts(re1, e1); !sameX(got, want) {
			t.Fatalf("FromParts(%v, %d) = %+v, reference %+v", re1, e1, got, want)
		}
		z, w := complex(re1, im1), complex(re2, im2)
		if got, want := CFromParts(z, e1), refNormComplex(z, e1); !sameC(got, want) {
			t.Fatalf("CFromParts(%v, %d) = %+v, reference %+v", z, e1, got, want)
		}
		x, y := refFromParts(re1, e1), refFromParts(re2, e2)
		if got, want := x.Add(y), refAdd(x, y); !sameX(got, want) {
			t.Fatalf("%+v + %+v = %+v, reference %+v", x, y, got, want)
		}
		zx, wx := refNormComplex(z, e1), refNormComplex(w, e2)
		if got, want := zx.Add(wx), refCAdd(zx, wx); !sameC(got, want) {
			t.Fatalf("%+v + %+v = %+v, reference %+v", zx, wx, got, want)
		}
		if got, want := zx.Mul(wx), refCMul(zx, wx); !sameC(got, want) {
			t.Fatalf("%+v · %+v = %+v, reference %+v", zx, wx, got, want)
		}
	}
}
