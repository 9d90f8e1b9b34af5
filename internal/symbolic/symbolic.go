// Package symbolic implements a small symbolic network analyzer: exact
// term enumeration of network-function coefficients with every circuit
// parameter kept as a symbol.
//
// It exists as the downstream consumer that motivates the paper.
// Simplification During Generation (refs. [2]-[4]) emits the largest
// terms of each coefficient h_k first, stopping when
//
//	|h_k(x0) − Σ generated| ≤ ε_k·|h_k(x0)|      (eq. 3)
//
// which requires the total coefficient magnitude h_k(x0) — the numerical
// reference — before any symbolic expression exists. internal/core
// produces that reference; this package consumes it.
//
// Term enumeration is exponential in circuit size; this analyzer is
// intended for the sub-15-node circuits where symbolic output is
// human-readable, exactly the regime SDG papers print formulas for.
package symbolic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/circuit"
	"repro/internal/xmath"
)

// factor is one symbolic entry contribution: a named admittance, its
// sign, numeric value at the design point, and whether it multiplies s.
type factor struct {
	name string
	cap  bool
	val  float64
	sign int
}

// entry is a sum of factors — one cell of the symbolic admittance matrix.
type entry []factor

// Term is one product term of a network-function coefficient.
type Term struct {
	// Coeff is the integer multiplicity after combining identical
	// products across permutations (always nonzero).
	Coeff int
	// Symbols are the element names in the product, sorted.
	Symbols []string
	// SPower is the power of s the term multiplies.
	SPower int
	// Value is Coeff·Π(values) at the design point, extended range.
	Value xmath.XFloat
}

// String renders the term, e.g. "-2·g1·gm2·c3".
func (t Term) String() string {
	var b strings.Builder
	switch {
	case t.Coeff == -1:
		b.WriteString("-")
	case t.Coeff != 1:
		fmt.Fprintf(&b, "%d·", t.Coeff)
	}
	b.WriteString(strings.Join(t.Symbols, "·"))
	return b.String()
}

// Analysis holds the symbolic form of one polynomial: terms grouped by
// power of s.
type Analysis struct {
	// Name labels the polynomial.
	Name string
	// ByPower maps s-power to that coefficient's terms, each list sorted
	// by descending magnitude.
	ByPower map[int][]Term
}

// NumTerms returns the total term count.
func (a *Analysis) NumTerms() int {
	n := 0
	for _, ts := range a.ByPower {
		n += len(ts)
	}
	return n
}

// Coefficient returns the exact value of coefficient k at the design
// point (the sum of its terms).
func (a *Analysis) Coefficient(k int) xmath.XFloat {
	var sum xmath.XFloat
	for _, t := range a.ByPower[k] {
		sum = sum.Add(t.Value)
	}
	return sum
}

// MaxPower returns the highest s-power with terms (-1 if none).
func (a *Analysis) MaxPower() int {
	max := -1
	for k := range a.ByPower {
		if k > max {
			max = k
		}
	}
	return max
}

// buildMatrix assembles the symbolic grounded admittance matrix.
func buildMatrix(c *circuit.Circuit) ([][]entry, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if !c.AdmittanceOnly() {
		return nil, fmt.Errorf("symbolic: circuit %q contains non-admittance elements", c.Name)
	}
	n := c.NumNodes()
	m := make([][]entry, n)
	for i := range m {
		m[i] = make([]entry, n)
	}
	add := func(i, j int, f factor) {
		if i >= 0 && j >= 0 {
			m[i][j] = append(m[i][j], f)
		}
	}
	stamp2 := func(p, q int, f factor) {
		add(p, p, f)
		add(q, q, f)
		neg := f
		neg.sign = -f.sign
		add(p, q, neg)
		add(q, p, neg)
	}
	for _, e := range c.Elements() {
		p, q := c.NodeIndex(e.P), c.NodeIndex(e.N)
		switch e.Kind {
		case circuit.Conductance:
			stamp2(p, q, factor{name: e.Name, val: e.Value, sign: 1})
		case circuit.Resistor:
			stamp2(p, q, factor{name: e.Name, val: 1 / e.Value, sign: 1})
		case circuit.Capacitor:
			stamp2(p, q, factor{name: e.Name, cap: true, val: e.Value, sign: 1})
		case circuit.VCCS:
			cp, cn := c.NodeIndex(e.CP), c.NodeIndex(e.CN)
			sign := 1
			val := e.Value
			if val < 0 {
				sign, val = -1, -val
			}
			f := factor{name: e.Name, val: val, sign: sign}
			neg := f
			neg.sign = -sign
			add(p, cp, f)
			add(p, cn, neg)
			add(q, cp, neg)
			add(q, cn, f)
		}
	}
	return m, nil
}

// minorOf removes row r and column c.
func minorOf(m [][]entry, r, c int) [][]entry {
	out := make([][]entry, 0, len(m)-1)
	for i := range m {
		if i == r {
			continue
		}
		row := make([]entry, 0, len(m)-1)
		for j := range m[i] {
			if j == c {
				continue
			}
			row = append(row, m[i][j])
		}
		out = append(out, row)
	}
	return out
}

// rawTerm accumulates one permutation product during expansion.
type rawTerm struct {
	sign   int
	names  []string
	sPower int
	value  float64 // mantissa-only product; exponent tracked separately
	exp    int64
}

// expandDet enumerates all determinant terms of the symbolic matrix by
// Laplace expansion along the first row.
func expandDet(m [][]entry, acc rawTerm, out *[]rawTerm) {
	n := len(m)
	if n == 0 {
		*out = append(*out, acc)
		return
	}
	for j, cell := range m[0] {
		if len(cell) == 0 {
			continue
		}
		colSign := 1
		if j%2 != 0 {
			colSign = -1
		}
		sub := minorOf(m, 0, j)
		for _, f := range cell {
			next := rawTerm{
				sign:   acc.sign * colSign * f.sign,
				names:  append(append([]string(nil), acc.names...), f.name),
				sPower: acc.sPower,
				value:  acc.value,
				exp:    acc.exp,
			}
			if f.cap {
				next.sPower++
			}
			// Keep the running product normalized to avoid under/overflow
			// across hundreds of decades.
			x := xmath.FromFloat(next.value).MulFloat(f.val)
			next.value, next.exp = x.Mant(), next.exp+x.Exp()
			expandDet(sub, next, out)
		}
	}
}

// collect combines identical products (same symbol multiset, same
// s-power) across permutations, dropping exact cancellations, and groups
// by power of s.
func collect(raw []rawTerm) map[int][]Term {
	type key struct {
		names  string
		sPower int
	}
	type agg struct {
		coeff int
		mag   xmath.XFloat // |Π values|
		names []string
	}
	groups := make(map[key]*agg)
	for _, rt := range raw {
		names := append([]string(nil), rt.names...)
		sort.Strings(names)
		k := key{names: strings.Join(names, "\x00"), sPower: rt.sPower}
		a, ok := groups[k]
		if !ok {
			a = &agg{mag: xmath.FromParts(rt.value, rt.exp).Abs(), names: names}
			groups[k] = a
		}
		a.coeff += rt.sign
	}
	byPower := make(map[int][]Term)
	for k, a := range groups {
		if a.coeff == 0 {
			continue // exact symbolic cancellation
		}
		v := a.mag.MulFloat(float64(a.coeff))
		byPower[k.sPower] = append(byPower[k.sPower], Term{
			Coeff:   a.coeff,
			Symbols: a.names,
			SPower:  k.sPower,
			Value:   v,
		})
	}
	for _, ts := range byPower {
		sort.Slice(ts, func(i, j int) bool {
			return ts[i].Value.CmpAbs(ts[j].Value) > 0
		})
	}
	return byPower
}

// cofactorTerms enumerates the terms of the signed cofactor C_rc.
func cofactorTerms(m [][]entry, r, c int, name string) *Analysis {
	sign := 1
	if (r+c)%2 != 0 {
		sign = -1
	}
	var raw []rawTerm
	expandDet(minorOf(m, r, c), rawTerm{sign: sign, value: 1}, &raw)
	return &Analysis{Name: name, ByPower: collect(raw)}
}

// VoltageGain returns the symbolic numerator and denominator of
// V(out)/V(in) (same cofactor formulation as internal/nodal).
func VoltageGain(c *circuit.Circuit, in, out string) (num, den *Analysis, err error) {
	m, err := buildMatrix(c)
	if err != nil {
		return nil, nil, err
	}
	i, o := c.NodeIndex(in), c.NodeIndex(out)
	if i < 0 || o < 0 {
		return nil, nil, fmt.Errorf("symbolic: bad nodes %q/%q", in, out)
	}
	return cofactorTerms(m, i, o, "numerator"), cofactorTerms(m, i, i, "denominator"), nil
}

// Truncation is the result of reference-controlled SDG truncation of one
// coefficient.
type Truncation struct {
	// Kept are the retained terms, largest first.
	Kept []Term
	// Total is the number of terms the full coefficient has.
	Total int
	// AchievedError is |ref − Σkept| / |ref|.
	AchievedError float64
}

// TruncateSDG keeps the largest-magnitude terms of a coefficient until
// eq. (3) holds against the numerical reference ref:
//
//	|ref − Σ kept| ≤ ε·|ref|
//
// Terms must be sorted by descending magnitude (as Analysis provides).
// A zero reference keeps nothing when ε > 0. An error is returned when
// every term is kept and the criterion still fails — the signature of an
// inaccurate reference, which is precisely the failure mode the paper's
// algorithm exists to prevent.
func TruncateSDG(terms []Term, ref xmath.XFloat, eps float64) (Truncation, error) {
	if eps <= 0 {
		return Truncation{}, fmt.Errorf("symbolic: ε must be positive")
	}
	if ref.Zero() {
		return Truncation{Total: len(terms)}, nil
	}
	var sum xmath.XFloat
	for i, t := range terms {
		sum = sum.Add(t.Value)
		errNow := ref.Sub(sum).Abs().Div(ref.Abs()).Float64()
		if errNow <= eps {
			kept := append([]Term(nil), terms[:i+1]...)
			return Truncation{Kept: kept, Total: len(terms), AchievedError: errNow}, nil
		}
	}
	errNow := 1.0
	if !sum.Zero() {
		errNow = ref.Sub(sum).Abs().Div(ref.Abs()).Float64()
	}
	return Truncation{Kept: terms, Total: len(terms), AchievedError: errNow},
		fmt.Errorf("symbolic: all %d terms kept, error %.3g still above ε=%g (reference inaccurate?)", len(terms), errNow, eps)
}

// Formula renders a truncated coefficient as a human-readable sum.
func (tr Truncation) Formula() string {
	if len(tr.Kept) == 0 {
		return "0"
	}
	parts := make([]string, len(tr.Kept))
	for i, t := range tr.Kept {
		parts[i] = t.String()
	}
	return strings.Join(parts, " + ")
}
