package exact

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"sync"

	"repro/internal/circuit"
	"repro/internal/interp"
	"repro/internal/poly"
	"repro/internal/xmath"
)

// This file implements the high-precision interpolation oracle: the same
// unit-circle interpolation pipeline the float64 code runs, executed in
// arbitrary-precision big.Float arithmetic (default 256 bits ≈ 77
// decimal digits). At that precision the round-off floor sits ~60
// decades below the coefficients, so a single unscaled interpolation
// recovers every coefficient of circuits whose float64 analysis needs
// the full adaptive machinery — which makes it an independent oracle at
// sizes where the Bareiss determinant is unaffordable.

// bigComplex is a complex number at fixed precision.
type bigComplex struct {
	re, im *big.Float
}

// floatPool recycles the big.Float temporaries of the oracle's complex
// arithmetic: every mul/div spins up four-to-eight temporaries, and a
// dense LU at 384 bits churns through millions of them. A sync.Pool is
// the right tool here (unlike the float64 hot path, which uses
// deterministic free lists): the oracle has no allocs/op gate, and the
// pool's GC-emptying behavior only costs re-allocation, never
// correctness. Every internal temporary is released with putFloat on
// every return path; values handed to callers escape and are simply
// never returned to the pool.
var floatPool = sync.Pool{New: func() any { return new(big.Float) }}

// getFloat returns a zero big.Float at the given precision from the
// pool.
func getFloat(prec uint) *big.Float {
	f := floatPool.Get().(*big.Float)
	// SetPrec(0) zeroes the value and drops the old mantissa's rounding
	// influence before the target precision is applied.
	return f.SetPrec(0).SetPrec(prec)
}

// putFloat releases a pooled float. The caller must not use f
// afterwards.
func putFloat(f *big.Float) { floatPool.Put(f) }

// getBC returns a pooled zero bigComplex; release with putBC.
func getBC(prec uint) bigComplex { return bigComplex{getFloat(prec), getFloat(prec)} }

// putBC releases both components of a pooled bigComplex.
func putBC(z bigComplex) {
	putFloat(z.re)
	putFloat(z.im)
}

func newBC(prec uint) bigComplex {
	return bigComplex{new(big.Float).SetPrec(prec), new(big.Float).SetPrec(prec)}
}

func bcFromFloat(prec uint, re float64) bigComplex {
	z := newBC(prec)
	z.re.SetFloat64(re)
	return z
}

func (z bigComplex) set(w bigComplex) bigComplex {
	z.re.Set(w.re)
	z.im.Set(w.im)
	return z
}

func (z bigComplex) isZero() bool { return z.re.Sign() == 0 && z.im.Sign() == 0 }

// add sets z = a+b (z may alias a or b).
func (z bigComplex) add(a, b bigComplex) bigComplex {
	z.re.Add(a.re, b.re)
	z.im.Add(a.im, b.im)
	return z
}

func (z bigComplex) sub(a, b bigComplex) bigComplex {
	z.re.Sub(a.re, b.re)
	z.im.Sub(a.im, b.im)
	return z
}

// mul sets z = a·b; z must not alias a or b.
func (z bigComplex) mul(a, b bigComplex) bigComplex {
	prec := z.re.Prec()
	t1 := getFloat(prec).Mul(a.re, b.re)
	t2 := getFloat(prec).Mul(a.im, b.im)
	t3 := getFloat(prec).Mul(a.re, b.im)
	t4 := getFloat(prec).Mul(a.im, b.re)
	z.re.Sub(t1, t2)
	z.im.Add(t3, t4)
	putFloat(t1)
	putFloat(t2)
	putFloat(t3)
	putFloat(t4)
	return z
}

// div sets z = a/b; z must not alias a or b.
func (z bigComplex) div(a, b bigComplex) bigComplex {
	prec := z.re.Prec()
	den := getFloat(prec)
	t := getFloat(prec)
	den.Mul(b.re, b.re)
	t.Mul(b.im, b.im)
	den.Add(den, t)
	num := getBC(prec)
	conj := bigComplex{getFloat(prec).Set(b.re), getFloat(prec).Neg(b.im)}
	num.mul(a, conj)
	z.re.Quo(num.re, den)
	z.im.Quo(num.im, den)
	putFloat(den)
	putFloat(t)
	putBC(num)
	putBC(conj)
	return z
}

// norm1 returns |re|+|im| (cheap pivoting magnitude). The returned
// float is pool-backed: release it with putFloat when done (callers that
// let it escape merely forgo recycling).
func (z bigComplex) norm1(prec uint) *big.Float {
	a := getFloat(prec).Abs(z.re)
	b := getFloat(prec).Abs(z.im)
	a.Add(a, b)
	putFloat(b)
	return a
}

// piString holds π to 120 decimal digits — ample for 256-bit twiddles.
const piString = "3.141592653589793238462643383279502884197169399375105820974944592307816406286208998628034825342117067982148086513282306647"

// sinCos computes sin and cos of x (|x| ≤ 2π expected) by Taylor series
// at the given precision.
func sinCos(x *big.Float, prec uint) (sin, cos *big.Float) {
	guard := prec + 32
	sin = new(big.Float).SetPrec(guard)
	cos = new(big.Float).SetPrec(guard).SetInt64(1)
	term := new(big.Float).SetPrec(guard).SetInt64(1)
	x2 := new(big.Float).SetPrec(guard).Mul(x, x)
	// cos: Σ (−1)^k x^(2k)/(2k)!; sin: x·Σ (−1)^k x^(2k)/(2k+1)!.
	sinAcc := new(big.Float).SetPrec(guard).SetInt64(1)
	sinTerm := new(big.Float).SetPrec(guard).SetInt64(1)
	t := new(big.Float).SetPrec(guard)
	for k := int64(1); k < 200; k++ {
		// cos term: ×(−x²)/((2k−1)(2k))
		term.Mul(term, x2)
		term.Neg(term)
		t.SetInt64((2*k - 1) * (2 * k))
		term.Quo(term, t)
		cos.Add(cos, term)
		// sin term: ×(−x²)/((2k)(2k+1))
		sinTerm.Mul(sinTerm, x2)
		sinTerm.Neg(sinTerm)
		t.SetInt64((2 * k) * (2*k + 1))
		sinTerm.Quo(sinTerm, t)
		sinAcc.Add(sinAcc, sinTerm)
		if term.MantExp(nil) < -int(guard) && sinTerm.MantExp(nil) < -int(guard) {
			break
		}
	}
	sinOut := new(big.Float).SetPrec(prec).Mul(x, sinAcc)
	cosOut := new(big.Float).SetPrec(prec).Set(cos)
	return sinOut, cosOut
}

// unitCircleBC returns the K-th roots of unity at the given precision.
func unitCircleBC(k int, prec uint) []bigComplex {
	pi, _, err := big.ParseFloat(piString, 10, prec+32, big.ToNearestEven)
	if err != nil {
		panic("exact: bad π constant: " + err.Error())
	}
	pts := make([]bigComplex, k)
	for i := 0; i < k; i++ {
		angle := new(big.Float).SetPrec(prec + 32).SetInt64(int64(2 * i))
		angle.Mul(angle, pi)
		angle.Quo(angle, new(big.Float).SetPrec(prec+32).SetInt64(int64(k)))
		s, c := sinCos(angle, prec)
		pts[i] = bigComplex{c, s}
	}
	pts[0] = bcFromFloat(prec, 1)
	if k%2 == 0 {
		pts[k/2] = bcFromFloat(prec, -1)
	}
	return pts
}

// detBC computes the determinant of a dense bigComplex matrix by LU with
// partial pivoting. The matrix is destroyed.
func detBC(m [][]bigComplex, prec uint) bigComplex {
	n := len(m)
	det := bcFromFloat(prec, 1)
	// Per-step temporaries come from the pool once and are recycled
	// across the whole elimination; detNext ping-pongs with det so the
	// pivot product never needs a fresh accumulator.
	detNext := getBC(prec)
	mult := getBC(prec)
	t := getBC(prec)
	release := func() {
		putBC(detNext)
		putBC(mult)
		putBC(t)
	}
	sign := 1
	for k := 0; k < n; k++ {
		p := k
		best := m[k][k].norm1(prec)
		for i := k + 1; i < n; i++ {
			if a := m[i][k].norm1(prec); a.Cmp(best) > 0 {
				putFloat(best)
				p, best = i, a
			} else {
				putFloat(a)
			}
		}
		if best.Sign() == 0 {
			putFloat(best)
			release()
			return newBC(prec) // singular
		}
		putFloat(best)
		if p != k {
			m[k], m[p] = m[p], m[k]
			sign = -sign
		}
		piv := m[k][k]
		detNext.mul(det, piv)
		det, detNext = detNext, det
		for i := k + 1; i < n; i++ {
			if m[i][k].isZero() {
				continue
			}
			mult.div(m[i][k], piv)
			for j := k + 1; j < n; j++ {
				if m[k][j].isZero() {
					continue
				}
				t.mul(mult, m[k][j])
				m[i][j].sub(m[i][j], t)
			}
			m[i][k].re.SetInt64(0)
			m[i][k].im.SetInt64(0)
		}
	}
	if sign < 0 {
		det.re.Neg(det.re)
		det.im.Neg(det.im)
	}
	release()
	return det
}

// hpStamp is one numeric admittance stamp.
type hpStamp struct {
	i, j int
	g, c float64
}

// hpStamps assembles the grounded-admittance stamp list of an
// admittance-only circuit.
func hpStamps(c *circuit.Circuit) ([]hpStamp, int, error) {
	if !c.AdmittanceOnly() {
		return nil, 0, fmt.Errorf("exact: circuit %q contains non-admittance elements", c.Name)
	}
	n := c.NumNodes()
	var stamps []hpStamp
	add := func(i, j int, g, cv float64) {
		if i >= 0 && j >= 0 {
			stamps = append(stamps, hpStamp{i, j, g, cv})
		}
	}
	stamp2 := func(p, q int, g, cv float64) {
		add(p, p, g, cv)
		add(q, q, g, cv)
		add(p, q, -g, -cv)
		add(q, p, -g, -cv)
	}
	for _, e := range c.Elements() {
		p, q := c.NodeIndex(e.P), c.NodeIndex(e.N)
		switch e.Kind {
		case circuit.Conductance:
			stamp2(p, q, e.Value, 0)
		case circuit.Resistor:
			stamp2(p, q, 1/e.Value, 0)
		case circuit.Capacitor:
			stamp2(p, q, 0, e.Value)
		case circuit.VCCS:
			cp, cn := c.NodeIndex(e.CP), c.NodeIndex(e.CN)
			add(p, cp, e.Value, 0)
			add(p, cn, -e.Value, 0)
			add(q, cp, -e.Value, 0)
			add(q, cn, e.Value, 0)
		}
	}
	return stamps, n, nil
}

// hpMatrixAt assembles Y(s) = G + s·C at a bigComplex point, minus row r
// and column cc (pass -1 to keep all).
func hpMatrixAt(stamps []hpStamp, n int, s bigComplex, r, cc int, prec uint) [][]bigComplex {
	dim := n
	if r >= 0 {
		dim--
	}
	m := make([][]bigComplex, dim)
	for i := range m {
		m[i] = make([]bigComplex, dim)
		for j := range m[i] {
			m[i][j] = newBC(prec)
		}
	}
	mapIdx := func(i, del int) int {
		if del < 0 || i < del {
			return i
		}
		if i == del {
			return -1
		}
		return i - 1
	}
	t := getBC(prec)
	g := getFloat(prec)
	cv := getBC(prec)
	for _, st := range stamps {
		i, j := mapIdx(st.i, r), mapIdx(st.j, cc)
		if i < 0 || j < 0 {
			continue
		}
		cell := m[i][j]
		if st.g != 0 {
			g.SetFloat64(st.g)
			cell.re.Add(cell.re, g)
		}
		if st.c != 0 {
			cv.re.SetFloat64(st.c)
			cv.im.SetInt64(0)
			t.mul(s, cv)
			cell.add(cell, t)
		}
	}
	putBC(t)
	putFloat(g)
	putBC(cv)
	return m
}

// HPVoltageGain computes the numerator and denominator of V(out)/V(in)
// by unit-circle interpolation at the given precision (384 bits ≈ 115
// decimal digits by default). The paper's mean-value scale pair is
// applied once — a single fixed scaling centers the coefficient profile,
// and at 115 digits the remaining drift (tens of decades even for large
// circuits) sits far above the round-off floor, so no adaptive tiling is
// needed. This makes it the method-level oracle for circuits whose
// Bareiss determinant is unaffordable.
func HPVoltageGain(c *circuit.Circuit, in, out string, prec uint) (num, den poly.XPoly, err error) {
	if prec == 0 {
		prec = 384
	}
	stamps, n, err := hpStamps(c)
	if err != nil {
		return nil, nil, err
	}
	i, o := c.NodeIndex(in), c.NodeIndex(out)
	if i < 0 || o < 0 {
		return nil, nil, fmt.Errorf("exact: bad nodes %q/%q", in, out)
	}
	// Mean-value scaling (exactly the paper's first heuristic): scale the
	// stamp values, interpolate, denormalize in extended range.
	fs, gs := 1.0, 1.0
	if mc := c.MeanCapacitance(); mc > 0 {
		fs = 1 / mc
	}
	if mg := c.MeanConductance(); mg > 0 {
		gs = 1 / mg
	}
	scaled := make([]hpStamp, len(stamps))
	for idx, st := range stamps {
		scaled[idx] = hpStamp{st.i, st.j, st.g * gs, st.c * fs}
	}
	bound := c.NumCapacitors()
	if m := n - 1; m < bound {
		bound = m
	}
	k := bound + 1
	pts := unitCircleBC(k, prec)
	numVals := make([]bigComplex, k)
	denVals := make([]bigComplex, k)
	// The per-point cofactors are independent dense LU eliminations in
	// big.Float arithmetic, which is deterministic regardless of
	// scheduling — safe to fan out unconditionally.
	interp.ParallelFor(context.Background(), k, runtime.GOMAXPROCS(0), func(p int) {
		s := pts[p]
		numVals[p] = cofactorBC(scaled, n, s, i, o, prec)
		denVals[p] = cofactorBC(scaled, n, s, i, i, prec)
	})
	m := n - 1 // homogeneity degree of the cofactors
	num = flushNoise(idftBC(numVals, prec), prec).Denormalize(fs, gs, m)
	den = flushNoise(idftBC(denVals, prec), prec).Denormalize(fs, gs, m)
	return num, den, nil
}

// flushNoise zeroes normalized coefficients below the precision's own
// round-off floor (structural zeros come out as ~2^-prec residue).
func flushNoise(p poly.XPoly, prec uint) poly.XPoly {
	max, idx := p.MaxAbs()
	if idx < 0 {
		return p
	}
	floor := max.Abs().Mul(xmath.FromParts(1, -int64(prec)+40))
	for i, c := range p {
		if !c.Zero() && c.CmpAbs(floor) < 0 {
			p[i] = xmath.XFloat{}
		}
	}
	return p
}

// cofactorBC evaluates the signed cofactor C_rc at point s.
func cofactorBC(stamps []hpStamp, n int, s bigComplex, r, c int, prec uint) bigComplex {
	m := hpMatrixAt(stamps, n, s, r, c, prec)
	det := detBC(m, prec)
	if (r+c)%2 != 0 {
		det.re.Neg(det.re)
		det.im.Neg(det.im)
	}
	return det
}

// idftBC runs the inverse DFT at full precision and converts the real
// parts to extended-range coefficients.
func idftBC(values []bigComplex, prec uint) poly.XPoly {
	k := len(values)
	pts := unitCircleBC(k, prec)
	out := make(poly.XPoly, k)
	invK := new(big.Float).SetPrec(prec).SetInt64(int64(k))
	acc := newBC(prec)
	t := newBC(prec)
	negIm := getFloat(prec)
	re := getFloat(prec)
	for i := 0; i < k; i++ {
		acc.re.SetInt64(0)
		acc.im.SetInt64(0)
		for j := 0; j < k; j++ {
			// e^(−2πi·i·j/K) = conj of the (i·j mod K)-th root.
			w := pts[(i*j)%k]
			conj := bigComplex{w.re, negIm.Neg(w.im)}
			t.mul(values[j], conj)
			acc.add(acc, t)
		}
		re.Quo(acc.re, invK)
		out[i] = bigToX(re)
	}
	putFloat(negIm)
	putFloat(re)
	return out
}

// bigToX converts a big.Float to the extended-range scalar.
func bigToX(f *big.Float) xmath.XFloat {
	if f.Sign() == 0 {
		return xmath.XFloat{}
	}
	mant := new(big.Float)
	exp := f.MantExp(mant) // f = mant·2^exp, |mant| ∈ [0.5, 1)
	mf, _ := mant.Float64()
	return xmath.FromParts(mf*2, int64(exp)-1)
}
