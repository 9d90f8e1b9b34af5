package exact

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/poly"
	"repro/internal/xmath"
)

// nodalMatrix assembles the symbolic-s grounded admittance matrix of an
// admittance-only circuit with exact rational entries g + s·c.
func nodalMatrix(c *circuit.Circuit) ([][]RatPoly, error) {
	if !c.AdmittanceOnly() {
		return nil, fmt.Errorf("exact: circuit %q contains non-admittance elements", c.Name)
	}
	m, _ := mnaMatrix(c)
	return m, nil
}

// minor returns m with row r and column c removed.
func minor(m [][]RatPoly, r, c int) [][]RatPoly {
	n := len(m)
	out := make([][]RatPoly, 0, n-1)
	for i := 0; i < n; i++ {
		if i == r {
			continue
		}
		row := make([]RatPoly, 0, n-1)
		for j := 0; j < n; j++ {
			if j == c {
				continue
			}
			row = append(row, m[i][j])
		}
		out = append(out, row)
	}
	return out
}

// cofactor returns the signed cofactor C_rc of the matrix.
func cofactor(m [][]RatPoly, r, c int) RatPoly {
	d := PolyDet(minor(m, r, c))
	if (r+c)%2 != 0 {
		d = d.Neg()
	}
	return d
}

// VoltageGain returns the exact numerator and denominator of
// V(out)/V(in) — the same cofactor formulation internal/nodal uses.
func VoltageGain(c *circuit.Circuit, in, out string) (num, den RatPoly, err error) {
	m, err := nodalMatrix(c)
	if err != nil {
		return nil, nil, err
	}
	i, o := c.NodeIndex(in), c.NodeIndex(out)
	if i < 0 || o < 0 {
		return nil, nil, fmt.Errorf("exact: bad nodes %q/%q", in, out)
	}
	return cofactor(m, i, o), cofactor(m, i, i), nil
}

// Transimpedance returns the exact numerator and denominator of
// V(out)/I(in).
func Transimpedance(c *circuit.Circuit, in, out string) (num, den RatPoly, err error) {
	m, err := nodalMatrix(c)
	if err != nil {
		return nil, nil, err
	}
	i, o := c.NodeIndex(in), c.NodeIndex(out)
	if i < 0 || o < 0 {
		return nil, nil, fmt.Errorf("exact: bad nodes %q/%q", in, out)
	}
	return cofactor(m, i, o), PolyDet(m), nil
}

// DifferentialVoltageGain returns the exact polynomials of
// V(out)/(V(inp)−V(inn)).
func DifferentialVoltageGain(c *circuit.Circuit, inp, inn, out string) (num, den RatPoly, err error) {
	m, err := nodalMatrix(c)
	if err != nil {
		return nil, nil, err
	}
	ip, in, o := c.NodeIndex(inp), c.NodeIndex(inn), c.NodeIndex(out)
	if ip < 0 || in < 0 || o < 0 {
		return nil, nil, fmt.Errorf("exact: bad nodes %q/%q/%q", inp, inn, out)
	}
	num = cofactor(m, ip, o).Sub(cofactor(m, in, o))
	den = cofactor(m, ip, ip).Add(cofactor(m, in, in)).
		Sub(cofactor(m, ip, in)).Sub(cofactor(m, in, ip))
	return num, den, nil
}

// RCLadderGain returns the exact transfer polynomials of an RC ladder
// (resistors rs[k] in series, capacitors cs[k] to ground after each)
// from the source to the final node, by the backward chain recursion —
// O(n²) and exact at any order, an oracle independent of PolyDet.
// H(s) = num/den with num = 1.
func RCLadderGain(rs, cs []float64) (num, den RatPoly) {
	if len(rs) != len(cs) || len(rs) == 0 {
		panic("exact: ladder needs equal, nonzero r/c counts")
	}
	n := len(rs)
	v := NewRatPoly(1) // V at the output node
	i := RatPoly{}     // current flowing toward the source through R_k
	for k := n - 1; k >= 0; k-- {
		// Current into node k from its capacitor: s·C_k·V_k.
		i = i.Add(NewRatPoly(0, cs[k]).Mul(v))
		// Voltage one node closer to the source.
		v = v.Add(NewRatPoly(rs[k]).Mul(i))
	}
	return NewRatPoly(1), v
}

// RatioEqual reports whether two transfer functions numA/denA and
// numB/denB agree as rational functions, comparing the cross products
// coefficient-wise in extended range with relative tolerance tol.
// Representations may differ by an arbitrary common scalar.
func RatioEqual(numA, denA, numB, denB poly.XPoly, tol float64) bool {
	lhs := crossMul(numA, denB)
	rhs := crossMul(numB, denA)
	n := len(lhs)
	if len(rhs) > n {
		n = len(rhs)
	}
	// Relative to the largest cross-product coefficient.
	var scale xmath.XFloat
	for i := 0; i < n; i++ {
		if i < len(lhs) && lhs[i].Abs().CmpAbs(scale) > 0 {
			scale = lhs[i].Abs()
		}
		if i < len(rhs) && rhs[i].Abs().CmpAbs(scale) > 0 {
			scale = rhs[i].Abs()
		}
	}
	if scale.Zero() {
		return true
	}
	for i := 0; i < n; i++ {
		var a, b xmath.XFloat
		if i < len(lhs) {
			a = lhs[i]
		}
		if i < len(rhs) {
			b = rhs[i]
		}
		diff := a.Sub(b).Abs()
		if diff.Div(scale).Float64() > tol {
			return false
		}
	}
	return true
}

func crossMul(a, b poly.XPoly) poly.XPoly {
	da, db := a.Degree(), b.Degree()
	if da < 0 || db < 0 {
		return poly.XPoly{}
	}
	r := make(poly.XPoly, da+db+1)
	for i := 0; i <= da; i++ {
		if a[i].Zero() {
			continue
		}
		for j := 0; j <= db; j++ {
			r[i+j] = r[i+j].Add(a[i].Mul(b[j]))
		}
	}
	return r
}

// MaxRelErr returns the largest per-coefficient relative deviation of
// got from want, treating indices where want is zero as requiring
// |got| ≤ tiny·max|want| (returned as 0 contribution if satisfied, +Inf
// otherwise).
func MaxRelErr(got, want poly.XPoly, tiny float64) float64 {
	var wmax xmath.XFloat
	for _, w := range want {
		if w.Abs().CmpAbs(wmax) > 0 {
			wmax = w.Abs()
		}
	}
	worst := 0.0
	n := len(want)
	if len(got) > n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		var g, w xmath.XFloat
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if w.Zero() {
			if !g.Zero() && !wmax.Zero() && g.Abs().Div(wmax).Float64() > tiny {
				return math.Inf(1)
			}
			continue
		}
		rel := g.Sub(w).Abs().Div(w.Abs()).Float64()
		if rel > worst {
			worst = rel
		}
	}
	return worst
}
