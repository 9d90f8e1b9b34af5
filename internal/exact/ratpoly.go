// Package exact provides the exact-arithmetic oracle for validating the
// floating-point reference generator: polynomials over big.Rat, one
// multi-modular determinant of polynomial matrices (PolyDet), the
// symbolic-s circuit determinants built on it, and an analytic RC-ladder
// recursion that checks it independently.
//
// float64 element values convert to big.Rat exactly, so every result
// here is the mathematically exact coefficient vector of the same
// network function the floating-point pipeline approximates. PolyDet
// reaches the paper's scale: the µA741's order-48 determinants take
// well under a second each.
package exact

import (
	"math/big"

	"repro/internal/poly"
	"repro/internal/xmath"
)

// RatPoly is a polynomial in s with rational coefficients, ascending
// order. Nil/absent entries are treated as zero.
type RatPoly []*big.Rat

// NewRatPoly builds a polynomial from float64 coefficients (exactly).
func NewRatPoly(coeffs ...float64) RatPoly {
	p := make(RatPoly, len(coeffs))
	for i, c := range coeffs {
		p[i] = new(big.Rat).SetFloat64(c)
	}
	return p
}

func (p RatPoly) at(i int) *big.Rat {
	if i < len(p) && p[i] != nil {
		return p[i]
	}
	return new(big.Rat)
}

// Degree returns the highest index with a nonzero coefficient (-1 for
// the zero polynomial).
func (p RatPoly) Degree() int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != nil && p[i].Sign() != 0 {
			return i
		}
	}
	return -1
}

// IsZero reports whether p is the zero polynomial.
func (p RatPoly) IsZero() bool { return p.Degree() < 0 }

// Add returns p+q.
func (p RatPoly) Add(q RatPoly) RatPoly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	r := make(RatPoly, n)
	for i := range r {
		r[i] = new(big.Rat).Add(p.at(i), q.at(i))
	}
	return r
}

// Sub returns p−q.
func (p RatPoly) Sub(q RatPoly) RatPoly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	r := make(RatPoly, n)
	for i := range r {
		r[i] = new(big.Rat).Sub(p.at(i), q.at(i))
	}
	return r
}

// Mul returns p·q.
func (p RatPoly) Mul(q RatPoly) RatPoly {
	dp, dq := p.Degree(), q.Degree()
	if dp < 0 || dq < 0 {
		return RatPoly{}
	}
	r := make(RatPoly, dp+dq+1)
	for i := range r {
		r[i] = new(big.Rat)
	}
	t := new(big.Rat)
	for i := 0; i <= dp; i++ {
		if p[i] == nil || p[i].Sign() == 0 {
			continue
		}
		for j := 0; j <= dq; j++ {
			if q[j] == nil || q[j].Sign() == 0 {
				continue
			}
			r[i+j].Add(r[i+j], t.Mul(p[i], q[j]))
		}
	}
	return r
}

// Neg returns −p.
func (p RatPoly) Neg() RatPoly {
	r := make(RatPoly, len(p))
	for i := range p {
		r[i] = new(big.Rat).Neg(p.at(i))
	}
	return r
}

// EvalRat evaluates p at a rational point.
func (p RatPoly) EvalRat(x *big.Rat) *big.Rat {
	acc := new(big.Rat)
	for i := len(p) - 1; i >= 0; i-- {
		acc.Mul(acc, x)
		acc.Add(acc, p.at(i))
	}
	return acc
}

// ratToX converts a big.Rat to an extended-range float via big.Float
// (64-bit mantissa), preserving magnitude far outside float64 range.
func ratToX(r *big.Rat) xmath.XFloat {
	if r.Sign() == 0 {
		return xmath.XFloat{}
	}
	f := new(big.Float).SetPrec(64).SetRat(r)
	mant := new(big.Float)
	exp := f.MantExp(mant) // f = mant × 2^exp, |mant| in [0.5, 1)
	mf, _ := mant.Float64()
	return xmath.FromParts(mf*2, int64(exp)-1)
}

// ToXPoly converts to the extended-range representation used across the
// module.
func (p RatPoly) ToXPoly() poly.XPoly {
	out := make(poly.XPoly, len(p))
	for i := range p {
		out[i] = ratToX(p.at(i))
	}
	return out
}

// String renders the polynomial (for diagnostics).
func (p RatPoly) String() string {
	d := p.Degree()
	if d < 0 {
		return "0"
	}
	s := ""
	for i := 0; i <= d; i++ {
		c := p.at(i)
		if c.Sign() == 0 {
			continue
		}
		if s != "" {
			s += " + "
		}
		s += c.RatString()
		if i == 1 {
			s += "·s"
		} else if i > 1 {
			s += "·s^" + itoa(i)
		}
	}
	return s
}

func itoa(i int) string {
	return new(big.Rat).SetInt64(int64(i)).RatString()
}
