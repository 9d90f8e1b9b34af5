package exact

import (
	"math"
	"math/big"

	"repro/internal/xmath"
)

// Approximate→exact reconstruction support (Feng et al. style): given a
// floating-point coefficient and a certified relative error bar, Snap
// finds the minimal-denominator rational consistent with the bar — the
// continued-fraction best approximation inside the error interval. The
// engine's exact-recovery pass renders the candidate back to the
// extended-range representation and accepts it only when it matches the
// exact oracle bit for bit.

// RatToX renders a rational as the correctly-rounded extended-range
// scalar — the same rendering ToXPoly applies to oracle coefficients, so
// equal rationals always render to equal XFloats.
func RatToX(r *big.Rat) xmath.XFloat { return ratToX(r) }

// XToRat converts an extended-range scalar to the exact rational it
// represents (every finite XFloat is a dyadic rational mant×2^exp).
func XToRat(x xmath.XFloat) *big.Rat {
	r := new(big.Rat).SetFloat64(x.Mant())
	if r == nil {
		return nil // non-finite
	}
	exp := x.Exp()
	shift := new(big.Rat)
	switch {
	case exp >= 0:
		shift.SetInt(new(big.Int).Lsh(big.NewInt(1), uint(exp)))
	default:
		shift.SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), uint(-exp)))
	}
	return r.Mul(r, shift)
}

// Snap returns the minimal-denominator rational within relative distance
// rel of v: the simplest rational in [v·(1−rel), v·(1+rel)]. A zero v or
// non-positive rel returns v itself.
func Snap(v *big.Rat, rel float64) *big.Rat {
	if v == nil || v.Sign() == 0 || !(rel > 0) || math.IsInf(rel, 0) {
		return v
	}
	delta := new(big.Rat).Mul(new(big.Rat).Abs(v), floatRat(rel))
	lo := new(big.Rat).Sub(v, delta)
	hi := new(big.Rat).Add(v, delta)
	return simplestBetween(lo, hi)
}

// floatRat converts a finite float64 to the exact rational it represents.
func floatRat(f float64) *big.Rat { return new(big.Rat).SetFloat64(f) }

// simplestBetween returns the smallest-denominator rational in [lo, hi]
// (ties broken toward the integer nearest zero), lo ≤ hi.
func simplestBetween(lo, hi *big.Rat) *big.Rat {
	if lo.Cmp(hi) > 0 {
		lo, hi = hi, lo
	}
	// An interval straddling or touching zero contains 0, the simplest
	// rational of all.
	if lo.Sign() <= 0 && hi.Sign() >= 0 {
		return new(big.Rat)
	}
	if lo.Sign() < 0 {
		// Mirror to the positive axis.
		nl := new(big.Rat).Neg(hi)
		nh := new(big.Rat).Neg(lo)
		return new(big.Rat).Neg(simplestPositive(nl, nh))
	}
	return simplestPositive(lo, hi)
}

// simplestPositive is the continued-fraction walk for 0 < lo ≤ hi: take
// the common integer part, recurse on the reciprocal remainder interval.
func simplestPositive(lo, hi *big.Rat) *big.Rat {
	// ⌈lo⌉ ≤ hi ⇒ an integer lies in the interval; it has denominator 1
	// and no rational is simpler.
	ceilLo := ceilRat(lo)
	if new(big.Rat).SetInt(ceilLo).Cmp(hi) <= 0 {
		return new(big.Rat).SetInt(ceilLo)
	}
	// Same integer part a on both ends: answer is a + 1/simplest of the
	// flipped fractional interval.
	a := floorRat(lo)
	aR := new(big.Rat).SetInt(a)
	fracLo := new(big.Rat).Sub(lo, aR)
	fracHi := new(big.Rat).Sub(hi, aR)
	inner := simplestPositive(new(big.Rat).Inv(fracHi), new(big.Rat).Inv(fracLo))
	return aR.Add(aR, new(big.Rat).Inv(inner))
}

func floorRat(r *big.Rat) *big.Int {
	q := new(big.Int)
	m := new(big.Int)
	q.QuoRem(r.Num(), r.Denom(), m)
	if m.Sign() < 0 {
		q.Sub(q, big.NewInt(1))
	}
	return q
}

func ceilRat(r *big.Rat) *big.Int {
	q := floorRat(r)
	if !r.IsInt() {
		q.Add(q, big.NewInt(1))
	}
	return q
}
