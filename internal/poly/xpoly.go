// Package poly implements dense univariate polynomials in the complex
// frequency s with extended-range (xmath.XFloat) coefficients.
//
// Coefficients are stored in ascending order of powers: c[i] is the
// coefficient of s^i. This matches the paper's notation
// P(s) = p0 + p1·s + ... + pn·s^n (eq. 4).
package poly

import (
	"strconv"
	"strings"

	"repro/internal/xmath"
)

// XPoly is a polynomial with extended-range real coefficients. It is the
// output representation of the reference generator: denormalized network
// function coefficients routinely lie outside float64 range (down to
// ~1e-522 for the µA741 denominator), so they cannot round-trip through
// float64.
type XPoly []xmath.XFloat

// NewX builds an XPoly from float64 coefficients.
func NewX(coeffs ...float64) XPoly {
	p := make(XPoly, len(coeffs))
	for i, c := range coeffs {
		p[i] = xmath.FromFloat(c)
	}
	return p
}

// Degree returns the index of the highest nonzero coefficient, or -1 for
// the zero polynomial.
func (p XPoly) Degree() int {
	for i := len(p) - 1; i >= 0; i-- {
		if !p[i].Zero() {
			return i
		}
	}
	return -1
}

// Trim returns p without trailing zero coefficients.
func (p XPoly) Trim() XPoly { return p[:p.Degree()+1] }

// Eval evaluates p at the extended complex point s by Horner's rule.
// The extended-range accumulator makes the evaluation immune to the
// overflow/underflow that plagues direct float64 Horner over the
// magnitude spans involved.
func (p XPoly) Eval(s xmath.XComplex) xmath.XComplex {
	var acc xmath.XComplex
	for i := len(p) - 1; i >= 0; i-- {
		acc = acc.Mul(s).Add(xmath.FromXFloat(p[i]))
	}
	return acc
}

// EvalJOmega evaluates p at s = jω.
func (p XPoly) EvalJOmega(omega float64) xmath.XComplex {
	return p.Eval(xmath.FromComplex(complex(0, omega)))
}

// Add returns p+q.
func (p XPoly) Add(q XPoly) XPoly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	r := make(XPoly, n)
	for i := range r {
		var a, b xmath.XFloat
		if i < len(p) {
			a = p[i]
		}
		if i < len(q) {
			b = q[i]
		}
		r[i] = a.Add(b)
	}
	return r
}

// Sub returns p−q.
func (p XPoly) Sub(q XPoly) XPoly {
	neg := make(XPoly, len(q))
	for i, c := range q {
		neg[i] = c.Neg()
	}
	return p.Add(neg)
}

// Mul returns p·q by schoolbook convolution in extended range.
func (p XPoly) Mul(q XPoly) XPoly {
	dp, dq := p.Degree(), q.Degree()
	if dp < 0 || dq < 0 {
		return XPoly{}
	}
	r := make(XPoly, dp+dq+1)
	for i := 0; i <= dp; i++ {
		if p[i].Zero() {
			continue
		}
		for j := 0; j <= dq; j++ {
			r[i+j] = r[i+j].Add(p[i].Mul(q[j]))
		}
	}
	return r
}

// MulX returns k·p for an extended scalar k.
func (p XPoly) MulX(k xmath.XFloat) XPoly {
	r := make(XPoly, len(p))
	for i, c := range p {
		r[i] = c.Mul(k)
	}
	return r
}

// MaxAbs returns the coefficient with the largest magnitude and its index.
// For the zero polynomial it returns (0, -1).
func (p XPoly) MaxAbs() (xmath.XFloat, int) {
	var best xmath.XFloat
	idx := -1
	for i, c := range p {
		if idx == -1 && !c.Zero() || c.CmpAbs(best) > 0 {
			best, idx = c, i
		}
	}
	if idx == -1 {
		return xmath.XFloat{}, -1
	}
	return best, idx
}

// Normalize applies the scaling law of eq. (11): given frequency scale f,
// conductance scale g and homogeneity degree M (the number of admittance
// factors per determinant term), it returns q with q_i = p_i · f^i · g^(M−i).
//
// This is exactly the coefficient transformation induced by multiplying
// every capacitor value by f and every conductance value by g in a
// nodal-admittance formulation.
func (p XPoly) Normalize(f, g float64, m int) XPoly {
	xf, xg := xmath.FromFloat(f), xmath.FromFloat(g)
	r := make(XPoly, len(p))
	for i, c := range p {
		r[i] = c.Mul(xf.PowInt(i)).Mul(xg.PowInt(m - i))
	}
	return r
}

// Denormalize inverts Normalize: p_i = q_i / (f^i · g^(M−i)).
func (p XPoly) Denormalize(f, g float64, m int) XPoly {
	xf, xg := xmath.FromFloat(f), xmath.FromFloat(g)
	r := make(XPoly, len(p))
	for i, c := range p {
		r[i] = c.Div(xf.PowInt(i)).Div(xg.PowInt(m - i))
	}
	return r
}

// ApproxEqual reports coefficient-wise agreement within rel relative
// tolerance, comparing up to the longer length (missing = zero).
func (p XPoly) ApproxEqual(q XPoly, rel float64) bool {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	for i := 0; i < n; i++ {
		var a, b xmath.XFloat
		if i < len(p) {
			a = p[i]
		}
		if i < len(q) {
			b = q[i]
		}
		if !a.ApproxEqual(b, rel) {
			return false
		}
	}
	return true
}

// String renders the polynomial with scientific-notation coefficients.
func (p XPoly) String() string {
	d := p.Degree()
	if d < 0 {
		return "0"
	}
	var b strings.Builder
	first := true
	for i := 0; i <= d; i++ {
		if p[i].Zero() {
			continue
		}
		if !first {
			b.WriteString(" + ")
		}
		first = false
		b.WriteString(p[i].String())
		if i == 1 {
			b.WriteString("·s")
		} else if i > 1 {
			b.WriteString("·s^")
			b.WriteString(strconv.Itoa(i))
		}
	}
	return b.String()
}
