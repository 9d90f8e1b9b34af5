package sparse

import (
	"math"
	"math/cmplx"

	"repro/internal/xmath"
)

// Lanes is the number of points Dets carries through one pass of a
// compiled plan. Go has no SIMD, so lanes pay off by sharing each step's
// index loads and bookkeeping among the points. On the µA741 patterns 4
// lanes beat 2, and 8 were no faster while doubling each worker's slot
// values and leaving fewer passes of a frame to share among workers.
const Lanes = 4

// Dets writes to dst[i] the determinant of the matrix a assembles at
// pts[i] under the scale factors fscale and gscale, zero where that
// matrix is singular. dst must have len(pts) entries.
//
// Until sp is primed, points are factored one at a time in full (the
// first success primes sp). After that, up to Lanes points at a time run
// one determinant-only pass of the compiled plan: each lane has its own
// slot values, no U row or multiplier is kept, and each lane
// accumulates its determinant pivot by pivot. Every lane performs
// exactly the operations — the same skips of exact zeros, the same
// stability guard, the same rounded products in the same order — that
// FactorAssembly followed by LU.Det performs on its point alone, so a
// point's determinant does not depend on the other points of its pass or
// on how a batch is cut into passes. A lane whose planned pivot reads
// zero or fails the guard stops, and only its point is factored again
// without the plan. A nil sp factors every point in full and primes
// nothing.
func (ws *Workspace) Dets(sp *SharedPlan, a *Assembly, pts []complex128, fscale, gscale float64, dst []xmath.XComplex) {
	if len(dst) != len(pts) {
		panic("sparse: Dets destination length does not match point count")
	}
	ws.lanes(sp, a, pts, fscale, gscale, nil, dst, nil)
}

// Solves is Dets with a right-hand side: besides each determinant it
// writes to x[i·a.N : (i+1)·a.N] the solution of A·x = b, A the matrix
// at pts[i], or NaN entries where A is singular. dets must have
// len(pts) entries and x len(pts)·a.N; b has a.N.
//
// Each lane carries its own forward-substitution vector through the
// pass, updated at every multiplier the elimination computes, and then
// back-substitutes through its own slot values, which hold every pivot
// row as its step left it. A point's determinant and solution are bit
// for bit those of FactorAssembly, LU.Det and LU.SolveInto on that
// point alone, a panic of LU.Det included; points that are factored in
// full solve through LU.SolveInto.
func (ws *Workspace) Solves(sp *SharedPlan, a *Assembly, pts []complex128, fscale, gscale float64, b []complex128, dets []xmath.XComplex, x []complex128) {
	if len(dets) != len(pts) || len(x) != len(pts)*a.N || len(b) != a.N {
		panic("sparse: Solves dets/x/b lengths do not match the point count and order")
	}
	ws.lanes(sp, a, pts, fscale, gscale, b, dets, x)
}

// lanes is Dets (b and x nil) and Solves: points one at a time in full
// until sp is primed, then passes of up to Lanes points, a lane that
// misses the plan factored again in full.
func (ws *Workspace) lanes(sp *SharedPlan, a *Assembly, pts []complex128, fscale, gscale float64, b []complex128, dets []xmath.XComplex, x []complex128) {
	n := 0
	if b != nil {
		n = a.N
	}
	for len(pts) > 0 {
		var c *compiled
		if sp != nil {
			c = sp.c.Load()
		}
		if c == nil {
			dets[0] = ws.full(sp, a, pts[0], fscale, gscale, b, x[:n])
			pts, dets, x = pts[1:], dets[1:], x[n:]
			continue
		}
		nl := min(len(pts), Lanes)
		missed := ws.pass(c, a, pts[:nl], fscale, gscale, b, dets[:nl], x[:nl*n])
		for l := range nl {
			if missed&(1<<l) != 0 {
				dets[l] = ws.full(nil, a, pts[l], fscale, gscale, b, x[l*n:(l+1)*n])
			}
		}
		pts, dets, x = pts[nl:], dets[nl:], x[nl*n:]
	}
}

// full factors the matrix a assembles at s by a full Markowitz
// factorization, never the compiled replay, and returns its determinant
// through LU.Det, zero when it is singular. With b non-nil it also
// solves into x through LU.SolveInto, or fills x with NaN when the
// matrix is singular; without b only the pivots are kept. A success
// primes sp if it is still unprimed; a nil sp primes nothing.
func (ws *Workspace) full(sp *SharedPlan, a *Assembly, s complex128, fscale, gscale float64, b, x []complex128) xmath.XComplex {
	ws.Assemble(nil, a, s, fscale, gscale)
	ws.plan = sp
	f, err := ws.factor(b != nil)
	if err != nil {
		for i := range x {
			x[i] = cmplx.NaN()
		}
		return xmath.XComplex{}
	}
	det := f.Det()
	if b != nil {
		_ = f.SolveInto(x, b, ws) // Solves has checked the lengths
	}
	return det
}

// pass runs one pass of the compiled plan c over the points pts, one
// lane each (len(pts) ≤ Lanes), and writes their determinants and, with
// b non-nil, their solutions (x holds len(pts)·c.n entries). Lane l's
// slot values are the plane v[l·nnz : (l+1)·nnz], on which it performs,
// step by step, exactly the scalar operations of the recording replay;
// its forward-substitution vector performs those of LU.SolveInto's
// forward pass at the multipliers as the elimination computes them. Bit
// l of the result is set when lane l missed the plan; its entries are
// then left for the caller to fill.
func (ws *Workspace) pass(c *compiled, a *Assembly, pts []complex128, fscale, gscale float64, b []complex128, dets []xmath.XComplex, x []complex128) (missed uint) {
	nl := len(pts)
	var (
		sc    [Lanes]complex128
		plane [Lanes][]complex128 // the live lanes' slot values; nil once a lane misses
		y     [Lanes][]complex128 // the lanes' forward-substitution vectors; nil without b
		pv    [Lanes]complex128   // y at the step's pivot row; 0 skips the step's forward updates
		det   [Lanes]xmath.Product
		bad   [Lanes]complex128 // the first non-finite pivot, or 0
		div   [Lanes]divisor
	)
	sign := xmath.NewProduct(xmath.FromComplex(complex(float64(c.detSign), 0)))
	ws.vals = resize(ws.vals, c.nnz*nl)
	v := ws.vals
	solving := b != nil
	if solving {
		ws.fwd = resize(ws.fwd, c.n*nl)
	}
	for l, s := range pts {
		sc[l], plane[l], det[l] = s*complex(fscale, 0), v[l*c.nnz:(l+1)*c.nnz], sign
		if solving {
			y[l] = ws.fwd[l*c.n : (l+1)*c.n]
			copy(y[l], b)
		}
	}
	a.accumulate(v, c.slot, sc[:nl], gscale)

	alive := nl
	for k := range c.steps {
		st := &c.steps[k]
		uslot := c.uslot[st.u0:st.u1]
		for l, vl := range plane[:nl] {
			if vl == nil {
				continue
			}
			piv := vl[uslot[st.piv]]
			if piv == 0 || unsafePivot(piv, vl, uslot) {
				plane[l] = nil
				alive--
				continue
			}
			// LU.Det's product panics at a non-finite pivot, but only if
			// the lane gets through every step; until then keep the pivot.
			switch {
			case !cmplx.IsInf(piv) && !cmplx.IsNaN(piv):
				det[l].Mul(piv)
			case bad[l] == 0:
				bad[l] = piv
			}
			if st.t1 > st.t0 {
				div[l] = newDivisor(piv)
				if solving {
					pv[l] = y[l][c.pivRow[k]]
				}
			}
		}
		if alive == 0 {
			break
		}
		width := len(uslot)
		for t := range int(st.t1 - st.t0) {
			off := int(st.s0) + t*width
			tsl := c.tslot[off : off+width]
			for l, vl := range plane[:nl] {
				if vl == nil {
					continue
				}
				fv := vl[tsl[st.piv]]
				if fv == 0 {
					continue
				}
				if !solving {
					// The determinant-only form keeps the multiplier
					// out of a variable: measured ~4% faster on the
					// µA741 lanes than sharing the solve's lines.
					eliminate(vl, uslot, tsl, int(st.piv), div[l].quo(fv))
					continue
				}
				mult := div[l].quo(fv)
				if pv[l] != 0 {
					y[l][c.trow[int(st.t0)+t]] -= mult * pv[l]
				}
				eliminate(vl, uslot, tsl, int(st.piv), mult)
			}
		}
	}
	for l := range nl {
		switch {
		case plane[l] == nil:
			missed |= 1 << l
		case bad[l] != 0:
			dets[l] = det[l].X().MulComplex(bad[l]) // panics, as LU.Det does
		default:
			dets[l] = det[l].X()
		}
	}
	if solving {
		for l, vl := range plane[:nl] {
			if vl != nil {
				c.backSubstitute(vl, y[l], x[l*c.n:(l+1)*c.n])
			}
		}
	}
	return missed
}

// backSubstitute solves U·x = y, reading U from the slot values v of a
// lane that got through every step: a pivot row is never a target once
// its step is done, so its slots still hold the U row that step
// recorded. It performs LU.SolveInto's back substitution — pivot rows
// in reverse step order, each row's other entries in ascending column
// order, exact zeros skipped, and a division by the pivot.
func (c *compiled) backSubstitute(v, y, x []complex128) {
	for k := len(c.steps) - 1; k >= 0; k-- {
		st := &c.steps[k]
		ucol, uslot := c.ucol[st.u0:st.u1], c.uslot[st.u0:st.u1]
		sum := y[c.pivRow[k]]
		for p, s := range uslot {
			if u := v[s]; u != 0 && p != int(st.piv) {
				sum -= u * x[ucol[p]]
			}
		}
		x[c.pivCol[k]] = sum / v[uslot[st.piv]]
	}
}

// divisor is a pivot prepared for division, so that a step computes the
// pivot-only part of a complex division once instead of once per target.
// The division is the runtime's complex128div — Smith's algorithm: its
// branch, ratio and denominator depend on the divisor alone. Every
// expression below is the runtime's, term for term, so that on targets
// where the compiler fuses a product into a sum (arm64, ppc64le, s390x,
// riscv64) it fuses here exactly where it fuses there. Do not add
// float64 conversions: they would stop a fusion the runtime makes.
type divisor struct {
	m            complex128
	ratio, denom float64
	realMajor    bool // |real(m)| ≥ |imag(m)|
}

func newDivisor(m complex128) divisor {
	if math.Abs(real(m)) >= math.Abs(imag(m)) {
		ratio := imag(m) / real(m)
		denom := real(m) + ratio*imag(m)
		return divisor{m: m, ratio: ratio, denom: denom, realMajor: true}
	}
	ratio := real(m) / imag(m)
	denom := imag(m) + ratio*real(m)
	return divisor{m: m, ratio: ratio, denom: denom}
}

// quo returns n / d.m with the bits of Go's complex division. When both
// parts come out NaN, the runtime corrects infinities and zeros; that
// rare case is answered by the division itself.
func (d *divisor) quo(n complex128) complex128 {
	var e, f float64
	if d.realMajor {
		e = (real(n) + imag(n)*d.ratio) / d.denom
		f = (imag(n) - real(n)*d.ratio) / d.denom
	} else {
		e = (real(n)*d.ratio + imag(n)) / d.denom
		f = (imag(n)*d.ratio - real(n)) / d.denom
	}
	if math.IsNaN(e) && math.IsNaN(f) {
		return n / d.m
	}
	return complex(e, f)
}
