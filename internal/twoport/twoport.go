// Package twoport extracts two-port admittance parameters as rational
// functions of s from generated references.
//
// For ports a and b (both against ground), the port impedance matrix is
// Z = [[C_aa, C_ba], [C_ab, C_bb]]/det Y, and by Jacobi's identity
// C_aa·C_bb − C_ba·C_ab = det Y · M_ab (M_ab = det of Y with rows and
// columns a, b removed), so the admittance parameters collapse to
// cofactor ratios over a single common denominator:
//
//	y11 = C_bb/M_ab   y12 = −C_ba/M_ab
//	y21 = −C_ab/M_ab  y22 = C_aa/M_ab
//
// Each polynomial is produced by the adaptive reference generator, so
// the parameters of integrated circuits with hundreds of decades of
// coefficient spread come out with guaranteed significant digits.
package twoport

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/nodal"
	"repro/internal/poly"
	"repro/internal/xmath"
)

// Params holds the Y-parameters as polynomial ratios with the common
// denominator Den.
type Params struct {
	Y11Num, Y12Num, Y21Num, Y22Num poly.XPoly
	Den                            poly.XPoly
	// Results carries the per-polynomial generator diagnostics, keyed
	// "y11", "y12", "y21", "y22", "den".
	Results map[string]*core.Result
}

// YParams generates the two-port admittance parameters between port
// nodes a and b (each against ground).
func YParams(c *circuit.Circuit, a, b string, cfg core.Config) (*Params, error) {
	sys, err := nodal.Build(c)
	if err != nil {
		return nil, err
	}
	ia, ib := c.NodeIndex(a), c.NodeIndex(b)
	if ia < 0 || ib < 0 {
		return nil, fmt.Errorf("twoport: bad port nodes %q/%q", a, b)
	}
	if ia == ib {
		return nil, fmt.Errorf("twoport: ports coincide")
	}
	fscale, gscale, _, _ := c.SeedScales()
	if cfg.InitFScale == 0 {
		cfg.InitFScale = fscale
	}
	if cfg.InitGScale == 0 {
		cfg.InitGScale = gscale
	}
	n := sys.N()
	caps := sys.NumCapacitors()
	bound := func(m int) int {
		if caps < m {
			return caps
		}
		return m
	}
	cof := func(name string, r, cc int, neg bool) interp.Evaluator {
		return interp.Evaluator{
			Name: name, M: n - 1, OrderBound: bound(n - 1),
			Eval: func(s complex128, f, g float64) xmath.XComplex {
				v := sys.Cofactor(r, cc, s, f, g)
				if neg {
					v = v.Neg()
				}
				return v
			},
		}
	}
	evs := map[string]interp.Evaluator{
		"y11": cof("y11", ib, ib, false),
		"y12": cof("y12", ib, ia, true),
		"y21": cof("y21", ia, ib, true),
		"y22": cof("y22", ia, ia, false),
		"den": {
			Name: "den", M: n - 2, OrderBound: bound(n - 2),
			Eval: func(s complex128, f, g float64) xmath.XComplex {
				return sys.MatrixAt(s, f, g).Minor([]int{ia, ib}, []int{ia, ib}).Det()
			},
		},
	}
	p := &Params{Results: map[string]*core.Result{}}
	for key, ev := range evs {
		res, err := core.Generate(ev, cfg)
		if err != nil {
			return nil, fmt.Errorf("twoport: %s: %w", key, err)
		}
		p.Results[key] = res
		switch key {
		case "y11":
			p.Y11Num = res.Poly()
		case "y12":
			p.Y12Num = res.Poly()
		case "y21":
			p.Y21Num = res.Poly()
		case "y22":
			p.Y22Num = res.Poly()
		case "den":
			p.Den = res.Poly()
		}
	}
	return p, nil
}

// At evaluates the Y-parameter matrix at a complex frequency.
func (p *Params) At(s complex128) ([2][2]complex128, error) {
	z := xmath.FromComplex(s)
	den := p.Den.Eval(z)
	if den.Zero() {
		return [2][2]complex128{}, fmt.Errorf("twoport: denominator vanishes at %v", s)
	}
	ev := func(num poly.XPoly) complex128 {
		return num.Eval(z).Div(den).Complex128()
	}
	return [2][2]complex128{
		{ev(p.Y11Num), ev(p.Y12Num)},
		{ev(p.Y21Num), ev(p.Y22Num)},
	}, nil
}

// Reciprocal reports whether y12 and y21 agree coefficient-wise to the
// given relative tolerance — true for every RLC network (no controlled
// sources), a classic network-theory invariant.
func (p *Params) Reciprocal(rel float64) bool {
	return p.Y12Num.ApproxEqual(p.Y21Num, rel)
}

// ABCD holds chain (transmission) parameters as polynomial ratios with a
// common denominator:
//
//	[V1]   1  [A B] [ V2]
//	[I1] = — · [C D]·[−I2]
//	       Den
//
// Chain parameters compose by matrix multiplication, which makes cascade
// analysis of two-ports a polynomial product.
type ABCD struct {
	A, B, C, D poly.XPoly
	Den        poly.XPoly
}

// ToABCD converts Y-parameters to chain parameters:
//
//	A = −y22/y21  B = −1/y21  C = −Δy/y21  D = −y11/y21
//
// with Δy = y11·y22 − y12·y21. In the common-denominator representation
// (y_ij = N_ij/M): A = −N22/N21, B = −M/N21, C = −(N11·N22 − N12·N21)/(M·N21),
// D = −N11/N21; brought over the common denominator M·N21.
func (p *Params) ToABCD() (*ABCD, error) {
	if p.Y21Num.Degree() < 0 {
		return nil, fmt.Errorf("twoport: y21 is identically zero; no transmission path")
	}
	neg := func(q poly.XPoly) poly.XPoly { return q.MulX(xmath.FromFloat(-1)) }
	den := p.Den.Mul(p.Y21Num)
	return &ABCD{
		A:   neg(p.Y22Num.Mul(p.Den)),
		B:   neg(p.Den.Mul(p.Den)),
		C:   neg(p.Y11Num.Mul(p.Y22Num).Sub(p.Y12Num.Mul(p.Y21Num))),
		D:   neg(p.Y11Num.Mul(p.Den)),
		Den: den,
	}, nil
}

// Cascade composes two chain matrices (self first, then q):
// [T] = [T_p]·[T_q], each entry a polynomial convolution.
func (t *ABCD) Cascade(q *ABCD) *ABCD {
	return &ABCD{
		A:   t.A.Mul(q.A).Add(t.B.Mul(q.C)),
		B:   t.A.Mul(q.B).Add(t.B.Mul(q.D)),
		C:   t.C.Mul(q.A).Add(t.D.Mul(q.C)),
		D:   t.C.Mul(q.B).Add(t.D.Mul(q.D)),
		Den: t.Den.Mul(q.Den),
	}
}

// VoltageGainInto returns the forward voltage transfer V2/V1 of the
// two-port terminated by load admittance yl (a polynomial ratio
// ylNum/ylDen; pass 0/1 polynomials for an open load):
//
//	V2/V1 = 1/(A + B·yl)
//
// returned as numerator and denominator polynomials.
func (t *ABCD) VoltageGainInto(ylNum, ylDen poly.XPoly) (num, den poly.XPoly) {
	num = t.Den.Mul(ylDen)
	den = t.A.Mul(ylDen).Add(t.B.Mul(ylNum))
	return num, den
}

// At evaluates the chain matrix at a complex frequency.
func (t *ABCD) At(s complex128) ([2][2]complex128, error) {
	z := xmath.FromComplex(s)
	den := t.Den.Eval(z)
	if den.Zero() {
		return [2][2]complex128{}, fmt.Errorf("twoport: chain denominator vanishes at %v", s)
	}
	ev := func(num poly.XPoly) complex128 {
		return num.Eval(z).Div(den).Complex128()
	}
	return [2][2]complex128{
		{ev(t.A), ev(t.B)},
		{ev(t.C), ev(t.D)},
	}, nil
}
