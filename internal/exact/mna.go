package exact

import (
	"fmt"
	"math/big"

	"repro/internal/circuit"
)

// MNATransfer computes the exact numerator and denominator polynomials
// of the network function from the circuit's independent sources (at
// their AC values) to the voltage at node out, using the full MNA
// formulation over big.Rat polynomials:
//
//	D(s) = det Y_MNA(s)
//	N(s) = det(Y_MNA(s) with the out-column replaced by the source
//	       vector)                                   (Cramer's rule)
//
// This is the oracle for the mna.TransferEvaluators interpolation path
// and supports every element kind, including inductors and controlled
// sources, at any size PolyDet reaches.
func MNATransfer(c *circuit.Circuit, out string) (num, den RatPoly, err error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	outIdx := c.NodeIndex(out)
	if outIdx < 0 {
		return nil, nil, fmt.Errorf("exact: bad output node %q", out)
	}
	m, rhs := mnaMatrix(c)
	den = PolyDet(m)
	// Cramer: replace the out column with the RHS.
	replaced := make([][]RatPoly, len(m))
	for i := range m {
		replaced[i] = make([]RatPoly, len(m))
		copy(replaced[i], m[i])
		replaced[i][outIdx] = rhs[i]
	}
	num = PolyDet(replaced)
	return num, den, nil
}

// mnaMatrix assembles the symbolic-s MNA matrix of c with exact rational
// entries — node rows first, then one branch row per voltage source,
// VCVS, CCVS and inductor — and the source vector. For an
// admittance-only circuit it is the grounded nodal admittance matrix.
func mnaMatrix(c *circuit.Circuit) (m [][]RatPoly, rhs []RatPoly) {
	n := c.NumNodes()
	branch := map[string]int{}
	dim := n
	for _, e := range c.Elements() {
		switch e.Kind {
		case circuit.VSource, circuit.VCVS, circuit.CCVS, circuit.Inductor:
			branch[e.Name] = dim
			dim++
		}
	}
	m = make([][]RatPoly, dim)
	for i := range m {
		m[i] = make([]RatPoly, dim)
		for j := range m[i] {
			m[i][j] = RatPoly{}
		}
	}
	rhs = make([]RatPoly, dim)
	for i := range rhs {
		rhs[i] = RatPoly{}
	}
	add := func(i, j int, p RatPoly) {
		if i >= 0 && j >= 0 {
			m[i][j] = m[i][j].Add(p)
		}
	}
	stamp2 := func(p, q int, y RatPoly) {
		add(p, p, y)
		add(q, q, y)
		add(p, q, y.Neg())
		add(q, p, y.Neg())
	}
	one := NewRatPoly(1)
	branchV := func(br, p, q int) {
		add(p, br, one)
		add(br, p, one)
		if q >= 0 {
			add(q, br, one.Neg())
			add(br, q, one.Neg())
		}
	}
	for _, e := range c.Elements() {
		p, q := c.NodeIndex(e.P), c.NodeIndex(e.N)
		switch e.Kind {
		case circuit.Resistor:
			stamp2(p, q, RatPoly{new(big.Rat).Inv(new(big.Rat).SetFloat64(e.Value))})
		case circuit.Conductance:
			stamp2(p, q, NewRatPoly(e.Value))
		case circuit.Capacitor:
			stamp2(p, q, NewRatPoly(0, e.Value))
		case circuit.VCCS:
			cp, cn := c.NodeIndex(e.CP), c.NodeIndex(e.CN)
			gm := NewRatPoly(e.Value)
			add(p, cp, gm)
			add(p, cn, gm.Neg())
			add(q, cp, gm.Neg())
			add(q, cn, gm)
		case circuit.Inductor:
			br := branch[e.Name]
			branchV(br, p, q)
			add(br, br, NewRatPoly(0, -e.Value))
		case circuit.VSource:
			br := branch[e.Name]
			branchV(br, p, q)
			rhs[br] = NewRatPoly(e.Value)
		case circuit.VCVS:
			br := branch[e.Name]
			branchV(br, p, q)
			cp, cn := c.NodeIndex(e.CP), c.NodeIndex(e.CN)
			add(br, cp, NewRatPoly(-e.Value))
			add(br, cn, NewRatPoly(e.Value))
		case circuit.CCVS:
			br := branch[e.Name]
			branchV(br, p, q)
			add(br, branch[e.Ctrl], NewRatPoly(-e.Value))
		case circuit.CCCS:
			add(p, branch[e.Ctrl], NewRatPoly(e.Value))
			add(q, branch[e.Ctrl], NewRatPoly(-e.Value))
		case circuit.ISource:
			if p >= 0 {
				rhs[p] = rhs[p].Sub(NewRatPoly(e.Value))
			}
			if q >= 0 {
				rhs[q] = rhs[q].Add(NewRatPoly(e.Value))
			}
		}
	}
	return m, rhs
}
