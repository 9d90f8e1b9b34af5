// Package xmath provides extended-range floating-point scalars.
//
// Network-function coefficients of integrated circuits span many hundreds
// of decades: the µA741 denominator in the reference paper runs from about
// 1e-90 (s^0) down to 1e-522 (s^48), far below the smallest subnormal
// float64 (~4.9e-324), while intermediate determinant values can exceed
// 1e+308. XFloat and XComplex store a float64 (or complex128) mantissa
// together with a separate binary exponent, extending the representable
// range to |exponent| ~ 2^63 while keeping float64 mantissa precision
// (~15.95 decimal digits), which is exactly the precision model the paper
// assumes ("a computer with 16-decimal-digit accuracy").
package xmath

import (
	"fmt"
	"math"
	"strconv"
)

// XFloat is an extended-range real number mant × 2^exp.
//
// Invariant (normal form): either mant == 0 and exp == 0, or
// 1 ≤ |mant| < 2. All constructors and arithmetic methods return values in
// normal form; the zero value of the struct is the number 0.
type XFloat struct {
	mant float64
	exp  int64
}

// FromFloat converts a float64 to an XFloat. Infinities and NaNs are not
// representable; they panic, because every code path in this module that
// could produce them is a bug upstream (singular matrix handling must
// happen before scalar conversion).
func FromFloat(v float64) XFloat {
	b := math.Float64bits(v)
	if be := b >> 52 & 0x7ff; be-1 < 2046 {
		// A normal v is ±1.f × 2^(be−1023): set the exponent field to
		// 1023's, which is exactly Frexp's frac × 2.
		return XFloat{mant: math.Float64frombits(b&^(0x7ff<<52) | 1023<<52), exp: int64(be) - 1023}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("xmath: cannot represent %v", v))
	}
	if v == 0 {
		return XFloat{}
	}
	frac, e := math.Frexp(v) // subnormal: v = frac × 2^e, 0.5 ≤ |frac| < 1
	return XFloat{mant: frac * 2, exp: int64(e) - 1}
}

// signBit masks the sign of a float64's bits.
const signBit = 1 << 63

// exp2Neg returns 2^−d, the alignment scale of an addition whose
// operands' exponents differ by d. For 0 ≤ d ≤ 64 — every d Add uses,
// unless the exponent difference overflowed — it is built from the
// exponent bits, which is exact; otherwise Ldexp computes it.
func exp2Neg(d int64) float64 {
	if uint64(d) <= 64 {
		return math.Float64frombits(uint64(1023-d) << 52)
	}
	return math.Ldexp(1, -int(d))
}

// NaN returns a quiet not-a-number XFloat. Together with Inf it is the
// only non-finite value the type admits, and it exists for the fault
// layer: arithmetic never produces it (constructors panic on non-finite
// input, see FromFloat), so consumers that may receive injected values
// screen them with Finite before computing.
func NaN() XFloat { return XFloat{mant: math.NaN()} }

// Inf returns an infinite XFloat with the given sign (≥ 0 selects +Inf).
// See NaN for the intended contract.
func Inf(sign int) XFloat {
	if sign < 0 {
		return XFloat{mant: math.Inf(-1)}
	}
	return XFloat{mant: math.Inf(1)}
}

// Finite reports whether x is neither NaN nor infinite. Values built
// through the normalizing constructors are always finite; only the NaN
// and Inf escape hatches produce non-finite values.
func (x XFloat) Finite() bool { return !math.IsNaN(x.mant) && !math.IsInf(x.mant, 0) }

// IsNaN reports whether x is the NaN value.
func (x XFloat) IsNaN() bool { return math.IsNaN(x.mant) }

// FromParts builds mant × 2^exp and normalizes it.
func FromParts(mant float64, exp int64) XFloat {
	x := FromFloat(mant)
	if x.mant == 0 {
		return x
	}
	x.exp += exp
	return x
}

// Zero reports whether x is exactly zero.
func (x XFloat) Zero() bool { return x.mant == 0 }

// Sign returns -1, 0 or +1.
func (x XFloat) Sign() int {
	switch {
	case x.mant > 0:
		return 1
	case x.mant < 0:
		return -1
	}
	return 0
}

// Mant returns the normalized mantissa (0 or in [1,2)).
func (x XFloat) Mant() float64 { return x.mant }

// Exp returns the binary exponent.
func (x XFloat) Exp() int64 { return x.exp }

// Neg returns -x.
func (x XFloat) Neg() XFloat { return XFloat{mant: -x.mant, exp: x.exp} }

// Abs returns |x|.
func (x XFloat) Abs() XFloat { return XFloat{mant: math.Abs(x.mant), exp: x.exp} }

// Mul returns x·y.
func (x XFloat) Mul(y XFloat) XFloat {
	if x.mant == 0 || y.mant == 0 {
		return XFloat{}
	}
	return FromParts(x.mant*y.mant, x.exp+y.exp)
}

// Div returns x/y. Division by zero panics.
func (x XFloat) Div(y XFloat) XFloat {
	if y.mant == 0 {
		panic("xmath: division by zero")
	}
	if x.mant == 0 {
		return XFloat{}
	}
	return FromParts(x.mant/y.mant, x.exp-y.exp)
}

// Add returns x+y.
func (x XFloat) Add(y XFloat) XFloat {
	if x.mant == 0 {
		return y
	}
	if y.mant == 0 {
		return x
	}
	// Align to the larger exponent; beyond ~60 bits the smaller operand is
	// entirely below the mantissa precision and vanishes.
	if x.exp < y.exp {
		x, y = y, x
	}
	d := x.exp - y.exp
	if d > 64 {
		return x
	}
	return FromParts(x.mant+y.mant*exp2Neg(d), x.exp)
}

// Sub returns x−y.
func (x XFloat) Sub(y XFloat) XFloat { return x.Add(y.Neg()) }

// MulFloat returns x·v for a plain float64 v.
func (x XFloat) MulFloat(v float64) XFloat { return x.Mul(FromFloat(v)) }

// PowInt returns x^n for integer n (negative n inverts; 0^0 = 1).
// Computed by binary exponentiation so rounding stays at O(log n) ulps.
func (x XFloat) PowInt(n int) XFloat {
	if n == 0 {
		return FromFloat(1)
	}
	inv := false
	if n < 0 {
		inv = true
		n = -n
	}
	var result XFloat
	if x.mant != 0 && x.Finite() {
		result = x.powNormal(n)
	} else {
		result = FromFloat(1)
		base := x
		for n > 0 {
			if n&1 == 1 {
				result = result.Mul(base)
			}
			base = base.Mul(base)
			n >>= 1
		}
	}
	if inv {
		return FromFloat(1).Div(result)
	}
	return result
}

// powNormal is the binary exponentiation of PowInt for a nonzero finite
// x and n > 0, with every Mul inlined: both factors of each product
// have magnitudes in [1,2), so the product's magnitude lies in [1,4)
// and Mul's normalization is at most one exact halving. The roundings
// are Mul's, product for product.
func (x XFloat) powNormal(n int) XFloat {
	rm, re := 1.0, int64(0)
	bm, be := x.mant, x.exp
	for {
		if n&1 == 1 {
			rm *= bm
			re += be
			if math.Abs(rm) >= 2 {
				rm *= 0.5
				re++
			}
		}
		if n >>= 1; n == 0 {
			return XFloat{mant: rm, exp: re}
		}
		bm *= bm
		be += be
		if bm >= 2 {
			bm *= 0.5
			be++
		}
	}
}

// Cmp compares x and y, returning -1, 0 or +1.
func (x XFloat) Cmp(y XFloat) int {
	return x.Sub(y).Sign()
}

// CmpAbs compares |x| and |y|.
func (x XFloat) CmpAbs(y XFloat) int {
	xa, ya := x.Abs(), y.Abs()
	switch {
	case xa.mant == 0 && ya.mant == 0:
		return 0
	case xa.mant == 0:
		return -1
	case ya.mant == 0:
		return 1
	case xa.exp != ya.exp:
		if xa.exp < ya.exp {
			return -1
		}
		return 1
	case xa.mant < ya.mant:
		return -1
	case xa.mant > ya.mant:
		return 1
	}
	return 0
}

// Float64 converts back to float64. Values outside float64 range saturate
// to ±Inf / underflow to 0, mirroring IEEE-754 conversion semantics.
func (x XFloat) Float64() float64 {
	if x.mant == 0 {
		return 0
	}
	if x.exp > 1100 {
		return math.Inf(int(math.Copysign(1, x.mant)))
	}
	if x.exp < -1200 {
		return 0
	}
	return math.Ldexp(x.mant, int(x.exp))
}

// Log10 returns log10(|x|). Panics on zero.
func (x XFloat) Log10() float64 {
	if x.mant == 0 {
		panic("xmath: Log10 of zero")
	}
	return math.Log10(math.Abs(x.mant)) + float64(x.exp)*math.Ln2/math.Ln10
}

// Pow10 returns 10^k as an XFloat for any integer k (|k| may far exceed
// the float64 exponent range).
func Pow10(k int) XFloat {
	return FromFloat(10).PowInt(k)
}

// decParts returns the sign, decimal mantissa in [1,10) and decimal
// exponent of x. Accuracy is limited by float64 evaluation of
// exp·log10(2): relative error grows like 1e-16·|log10(x)|, i.e. ~1e-13
// at the 1e±500 extremes — ample for the 6-significant-digit displays the
// paper uses.
func (x XFloat) decParts() (neg bool, mant10 float64, exp10 int) {
	l := x.Log10()
	exp10 = int(math.Floor(l))
	mant10 = math.Pow(10, l-float64(exp10))
	// Guard against Pow landing on 10.0 due to rounding at the boundary.
	if mant10 >= 10 {
		mant10 /= 10
		exp10++
	}
	if mant10 < 1 {
		mant10 *= 10
		exp10--
	}
	return x.mant < 0, mant10, exp10
}

// String formats x in scientific notation with 6 significant digits,
// matching the paper's table style (e.g. "-3.52987e+91").
func (x XFloat) String() string { return x.Text(6) }

// Text formats x in scientific notation with the given number of
// significant digits.
func (x XFloat) Text(digits int) string {
	var buf [32]byte
	return string(x.AppendDigits(buf[:0], digits))
}

// AppendDigits appends Text(digits) to b.
func (x XFloat) AppendDigits(b []byte, digits int) []byte {
	if x.mant == 0 {
		return append(b, '0')
	}
	if digits < 1 {
		digits = 1
	}
	neg, m, e := x.decParts()
	if neg {
		b = append(b, '-')
	}
	if math.IsNaN(m) || math.IsInf(m, 0) {
		return fmt.Appendf(b, "%se%+03d", strconv.FormatFloat(m, 'f', digits-1, 64), e)
	}
	// m is in [1, 10), so its 'e' form carries the digits of its 'f'
	// form with digits-1 decimals, at an exponent of +00 — or +01 when
	// rounding carries (9.9999996 → 1.00000e+01). Unlike 'f', 'e' takes
	// strconv's fixed-precision fast path.
	b = strconv.AppendFloat(b, m, 'e', digits-1, 64)
	n := len(b) - len("e+00")
	if b[n+3] == '1' {
		e++
	}
	b = append(b[:n], 'e', '+')
	if e < 0 {
		b[n+1], e = '-', -e
	}
	if e < 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(e), 10)
}

// ApproxEqual reports whether x and y agree to within rel relative
// tolerance (measured against the larger magnitude). Two zeros are equal.
func (x XFloat) ApproxEqual(y XFloat, rel float64) bool {
	if x.mant == 0 && y.mant == 0 {
		return true
	}
	diff := x.Sub(y).Abs()
	scale := x.Abs()
	if y.Abs().CmpAbs(scale) > 0 {
		scale = y.Abs()
	}
	if scale.mant == 0 {
		return diff.mant == 0
	}
	return diff.Div(scale).Float64() <= rel
}
