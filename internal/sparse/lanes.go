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
// without the plan.
func (ws *Workspace) Dets(sp *SharedPlan, a *Assembly, pts []complex128, fscale, gscale float64, dst []xmath.XComplex) {
	if len(dst) != len(pts) {
		panic("sparse: Dets destination length does not match point count")
	}
	for len(pts) > 0 {
		c := sp.c.Load()
		if c == nil {
			dst[0] = ws.det(sp, a, pts[0], fscale, gscale)
			pts, dst = pts[1:], dst[1:]
			continue
		}
		nl := min(len(pts), Lanes)
		missed := ws.detLanes(c, a, pts[:nl], fscale, gscale, dst[:nl])
		for l := range nl {
			if missed&(1<<l) != 0 {
				dst[l] = ws.det(nil, a, pts[l], fscale, gscale)
			}
		}
		pts, dst = pts[nl:], dst[nl:]
	}
}

// det is one point's determinant through FactorAssembly and LU.Det,
// zero when the matrix is singular. A full factorization keeps only its
// pivots.
func (ws *Workspace) det(sp *SharedPlan, a *Assembly, s complex128, fscale, gscale float64) xmath.XComplex {
	f, err := ws.factorAssembly(sp, a, s, fscale, gscale, false)
	if err != nil {
		return xmath.XComplex{}
	}
	return f.Det()
}

// detLanes runs the determinant-only replay of c over the points pts,
// one lane each (len(pts) ≤ Lanes), and writes their determinants. Lane
// l's slot values are the plane v[l·nnz : (l+1)·nnz], on which it
// performs, step by step, exactly the scalar operations of the recording
// replay. Bit l of the result is set when lane l missed the plan; its
// dst entry is then left for the caller to fill.
func (ws *Workspace) detLanes(c *compiled, a *Assembly, pts []complex128, fscale, gscale float64, dst []xmath.XComplex) (missed uint) {
	nl := len(pts)
	var (
		sc    [Lanes]complex128
		plane [Lanes][]complex128 // the live lanes' slot values; nil once a lane misses
		det   [Lanes]xmath.XComplex
		bad   [Lanes]complex128 // the first non-finite pivot, or 0
		div   [Lanes]divisor
	)
	sign := xmath.FromComplex(complex(float64(c.detSign), 0))
	ws.vals = resize(ws.vals, c.nnz*nl)
	v := ws.vals
	for l, s := range pts {
		sc[l], plane[l], det[l] = s*complex(fscale, 0), v[l*c.nnz:(l+1)*c.nnz], sign
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
				det[l] = det[l].MulComplex(piv)
			case bad[l] == 0:
				bad[l] = piv
			}
			if st.t1 > st.t0 {
				div[l] = newDivisor(piv)
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
				eliminate(vl, uslot, tsl, int(st.piv), div[l].quo(fv))
			}
		}
	}
	for l := range nl {
		switch {
		case plane[l] == nil:
			missed |= 1 << l
		case bad[l] != 0:
			dst[l] = det[l].MulComplex(bad[l]) // panics, as LU.Det does
		default:
			dst[l] = det[l]
		}
	}
	return missed
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
