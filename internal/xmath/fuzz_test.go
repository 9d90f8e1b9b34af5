package xmath

import (
	"math"
	"testing"
)

// FuzzXFloat checks the algebraic contracts of the extended-range
// scalar on arbitrary inputs: normal form after every operation,
// involution of negation, multiplicative round trips, and ordering
// consistency. These are the properties the interpolation core leans on
// when products of thousands of pivots overflow float64.
func FuzzXFloat(f *testing.F) {
	f.Add(1.5, -2.25, int64(10))
	f.Add(0.0, 1e-300, int64(-4000))
	f.Add(-3.7e200, 5.1e-180, int64(900))
	f.Fuzz(func(t *testing.T, a, b float64, shift int64) {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			t.Skip("FromFloat rejects non-finite inputs by contract")
		}
		// Keep the synthetic exponent well inside int64 so products of a
		// few operands cannot overflow the exponent field.
		shift %= 1 << 40

		x := FromParts(a, shift)
		y := FromFloat(b)

		normal := func(v XFloat, op string) {
			m := v.Mant()
			if v.Zero() {
				if m != 0 || v.Exp() != 0 {
					t.Fatalf("%s: zero not canonical: mant=%g exp=%d", op, m, v.Exp())
				}
				return
			}
			if math.Abs(m) < 1 || math.Abs(m) >= 2 {
				t.Fatalf("%s: mantissa %g outside normal form [1,2)", op, m)
			}
		}
		normal(x, "FromParts")
		normal(y, "FromFloat")
		normal(x.Mul(y), "Mul")
		normal(x.Add(y), "Add")
		normal(x.Sub(y), "Sub")
		if !y.Zero() {
			normal(x.Div(y), "Div")
		}

		// Involutions and exact cancellation.
		if n := x.Neg().Neg(); n.Mant() != x.Mant() || n.Exp() != x.Exp() {
			t.Fatalf("Neg not an involution: %v vs %v", n, x)
		}
		if !x.Sub(x).Zero() {
			t.Fatalf("x - x = %v, want exact zero", x.Sub(x))
		}
		if x.Abs().Sign() < 0 {
			t.Fatalf("Abs produced negative value %v", x.Abs())
		}

		// Multiplicative round trip (no cancellation, so tight tolerance).
		if !y.Zero() {
			if r := x.Mul(y).Div(y); !r.ApproxEqual(x, 1e-14) {
				t.Fatalf("(x*y)/y = %v, want %v", r, x)
			}
		}
		if p := x.PowInt(2); !p.ApproxEqual(x.Mul(x), 1e-14) {
			t.Fatalf("x^2 = %v, want x*x = %v", p, x.Mul(x))
		}
		for _, n := range []int{1, 3, 7, 48, int(shift%97 + 96)} {
			if got, want := x.PowInt(n), powIntOracle(x, n); got != want {
				t.Fatalf("x^%d = %v·2^%d, want %v·2^%d", n, got.Mant(), got.Exp(), want.Mant(), want.Exp())
			}
		}

		// Ordering is antisymmetric and consistent with subtraction.
		if x.Cmp(y) != -y.Cmp(x) {
			t.Fatalf("Cmp not antisymmetric: %d vs %d", x.Cmp(y), y.Cmp(x))
		}
		if c := x.Cmp(y); c != 0 && c != x.Sub(y).Sign() {
			t.Fatalf("Cmp=%d disagrees with Sub sign %d", c, x.Sub(y).Sign())
		}

		// float64 round trip is exact inside float64's own range.
		if a != 0 && math.Abs(a) >= 1e-300 && math.Abs(a) <= 1e300 {
			if got := FromFloat(a).Float64(); got != a {
				t.Fatalf("FromFloat(%g).Float64() = %g", a, got)
			}
		}

		// The wire format is lossless and deterministic: text → value →
		// text is the identity on spellings, value → text → value on bits.
		for _, v := range []XFloat{x, y, x.Mul(y)} {
			text, err := v.MarshalText()
			if err != nil {
				t.Fatalf("MarshalText(%v): %v", v, err)
			}
			var back XFloat
			if err := back.UnmarshalText(text); err != nil {
				t.Fatalf("UnmarshalText(%q): %v", text, err)
			}
			if back != v {
				t.Fatalf("wire round trip of %q: mant=%g exp=%d, want mant=%g exp=%d",
					text, back.Mant(), back.Exp(), v.Mant(), v.Exp())
			}
		}
	})
}
