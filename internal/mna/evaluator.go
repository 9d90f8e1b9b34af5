package mna

import (
	"context"
	"fmt"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/interp"
	"repro/internal/sparse"
	"repro/internal/xmath"
)

// This file implements the paper's §2 formulation (eqs. 7–10) directly:
// with the modified nodal equations Y_MNA·X = E, the denominator of any
// network function is
//
//	D(s_k) = det Y_MNA(s_k)                          (eq. 9)
//
// obtained from the LU factorization, and the numerator follows from the
// solved transfer value H(s_k) = X_out(s_k):
//
//	N(s_k) = H(s_k) · D(s_k)                          (eq. 10)
//
// Unlike the admittance-cofactor path (internal/nodal), this works for
// every element the MNA formulation supports — inductors, independent
// and controlled sources — at the price of the conductance-scaling law:
// MNA determinant terms mix admittance factors with the dimensionless
// ±1/gain entries of voltage-defined branches, so only frequency scaling
// transforms coefficients exactly (p'_i = p_i·f^i). Use the generator
// with Config.SingleFactor=true and leave the conductance scale at 1.

// dets evaluates D(s) = det Y_MNA(s) at every point of pts, zero where
// singular, through the determinant-only lane replay (see
// sparse.Workspace.Dets).
func (sys *System) dets(sc *sparse.Scratch, dst []xmath.XComplex, pts []complex128, fscale, gscale float64) {
	sc.WS.Dets(sys.detPlan, &sys.asm, pts, fscale, gscale, dst)
}

// detAt is dets at one point: the lane replay with one live lane.
func (sys *System) detAt(sc *sparse.Scratch, s complex128, fscale, gscale float64) xmath.XComplex {
	var d [1]xmath.XComplex
	sys.dets(sc, d[:], []complex128{s}, fscale, gscale)
	return d[0]
}

// solves evaluates det Y_MNA(s) into dets and solves Y_MNA(s)·X = E —
// E the independent sources at their AC values — at every point of pts,
// through the lane replay with a right-hand side (see
// sparse.Workspace.Solves): one factorization serves both. The solution
// at pts[i] is x[i·dim : (i+1)·dim], in sc until its next use; it is NaN
// where the matrix is singular.
func (sys *System) solves(sc *sparse.Scratch, dets []xmath.XComplex, pts []complex128, fscale, gscale float64) (x []complex128) {
	rhs, x := sc.Vectors(sys.dim, len(pts))
	for i, v := range sys.rhs {
		rhs[i] = complex(v, 0)
	}
	sc.WS.Solves(sys.detPlan, &sys.asm, pts, fscale, gscale, rhs, dets, x)
	return x
}

// transferValue is N(s) = X_out(s)·det Y_MNA(s) per eqs. (8)–(10), zero
// when X_out is not finite (a singular point's solution is NaN).
func transferValue(det xmath.XComplex, xout complex128) xmath.XComplex {
	if cmplx.IsNaN(xout) || cmplx.IsInf(xout) {
		return xmath.XComplex{}
	}
	return det.MulComplex(xout)
}

// nums evaluates N(s) at every point of pts, the solution's entry idx
// times the determinant.
func (sys *System) nums(sc *sparse.Scratch, idx int, dst []xmath.XComplex, pts []complex128, fscale, gscale float64) {
	x := sys.solves(sc, dst, pts, fscale, gscale)
	for i := range pts {
		dst[i] = transferValue(dst[i], x[i*sys.dim+idx])
	}
}

// numAt is nums at one point.
func (sys *System) numAt(sc *sparse.Scratch, idx int, s complex128, fscale, gscale float64) xmath.XComplex {
	var n [1]xmath.XComplex
	sys.nums(sc, idx, n[:], []complex128{s}, fscale, gscale)
	return n[0]
}

// evaluator wraps a point's value (at) and a chunk's values (chunk) as
// an interp.Evaluator: the serial Eval runs at on a scratch drawn from
// the shared stack per point (allocation-free in the steady state), and
// EvalBatch fans chunks of sparse.Lanes points out over per-worker
// scratches leased from the stack — returned when the batch drains —
// after serially priming the shared pivot plan. chunk must give each
// point the value at gives it.
func (sys *System) evaluator(name string, bound int,
	at func(sc *sparse.Scratch, s complex128, fscale, gscale float64) xmath.XComplex,
	chunk func(sc *sparse.Scratch, dst []xmath.XComplex, pts []complex128, fscale, gscale float64)) interp.Evaluator {
	return interp.Evaluator{
		Name:       name,
		M:          0,
		OrderBound: bound,
		Eval: func(s complex128, fscale, gscale float64) xmath.XComplex {
			sc := sparse.GetScratch()
			v := at(sc, s, fscale, gscale)
			sparse.PutScratch(sc)
			return v
		},
		EvalBatch: func(ctx context.Context, points []complex128, fscale, gscale float64, workers int) []xmath.XComplex {
			// RunChunks returns only after every worker goroutine has
			// exited, so the scratches are idle when released.
			var lease sparse.Lease
			defer lease.Release()
			return interp.RunChunks(ctx, points, workers, sparse.Lanes, sys.detPlan.Primed, func() func([]xmath.XComplex, []complex128) {
				sc := lease.Get()
				return func(dst []xmath.XComplex, pts []complex128) {
					chunk(sc, dst, pts, fscale, gscale)
				}
			})
		},
	}
}

// OrderBound returns the a-priori bound on the polynomial order of the
// MNA determinant: the number of frequency-dependent elements.
func (sys *System) OrderBound() int {
	n := 0
	for _, e := range sys.c.Elements() {
		switch e.Kind {
		case circuit.Capacitor, circuit.Inductor:
			n++
		}
	}
	return n
}

// DetEvaluator returns the evaluator for D(s) = det Y_MNA(s) (eq. 9).
// Only frequency scaling is exact for MNA matrices; the evaluator
// reports M = 0 and expects the conductance scale to stay 1 (enforce
// with core.Config.SingleFactor).
func (sys *System) DetEvaluator() interp.Evaluator {
	return sys.evaluator("denominator", sys.OrderBound(), sys.detAt, sys.dets)
}

// TransferEvaluators returns the numerator and denominator evaluators of
// the network function from the circuit's independent sources (at their
// AC values) to the voltage at node out, per eqs. (8)–(10). The circuit
// must contain at least one independent source.
func (sys *System) TransferEvaluators(out string) (*interp.TransferFunction, error) {
	idx := sys.c.NodeIndex(out)
	if idx == -2 {
		return nil, fmt.Errorf("mna: unknown node %q", out)
	}
	if idx == -1 {
		return nil, fmt.Errorf("mna: output node is ground")
	}
	hasSource := false
	for _, e := range sys.c.Elements() {
		if (e.Kind == circuit.VSource || e.Kind == circuit.ISource) && e.Value != 0 {
			hasSource = true
			break
		}
	}
	if !hasSource {
		return nil, fmt.Errorf("mna: no independent source with nonzero AC value")
	}
	bound := sys.OrderBound()
	numPoint := func(sc *sparse.Scratch, s complex128, fscale, gscale float64) xmath.XComplex {
		return sys.numAt(sc, idx, s, fscale, gscale)
	}
	num := sys.evaluator("numerator", bound, numPoint, func(sc *sparse.Scratch, dst []xmath.XComplex, pts []complex128, fscale, gscale float64) {
		sys.nums(sc, idx, dst, pts, fscale, gscale)
	})
	tf := &interp.TransferFunction{
		Name: fmt.Sprintf("V(%s)/source", out),
		Num:  num,
		Den:  sys.evaluator("denominator", bound, sys.detAt, sys.dets),
	}
	// Joint mode: eqs. (8)–(10) already obtain N from the same
	// factorization that gives D = det Y_MNA, so the joint form is nums
	// with the determinants reported alongside.
	tf.EvalBothChunk = func(num, den []xmath.XComplex, pts []complex128, fscale, gscale float64) {
		sc := sparse.GetScratch()
		x := sys.solves(sc, den, pts, fscale, gscale)
		for i := range pts {
			num[i] = transferValue(den[i], x[i*sys.dim+idx])
		}
		sparse.PutScratch(sc)
	}
	tf.BothReady = sys.detPlan.Primed
	return tf, nil
}
