package mna

import (
	"context"
	"fmt"
	"math/cmplx"
	"sync"

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

// evalScratch is the reusable per-worker evaluation state of the one
// MNA sparsity pattern: the factorization workspace (slot values, and
// the rows and LU of a full or recording factorization once one is
// needed) and the RHS and solution vectors of the transfer solve,
// allocated by the first solve.
type evalScratch struct {
	ws  sparse.Workspace
	rhs []complex128
	sol []complex128
}

// getScratch pops a scratch from the system's free list, building one
// sized for the MNA dimension when the list is empty.
func (sys *System) getScratch() *evalScratch {
	sys.scratchMu.Lock()
	if n := len(sys.free); n > 0 {
		sc := sys.free[n-1]
		sys.free = sys.free[:n-1]
		sys.scratchMu.Unlock()
		return sc
	}
	sys.scratchMu.Unlock()
	return new(evalScratch)
}

// putScratch returns a scratch to the free list.
func (sys *System) putScratch(sc *evalScratch) {
	sys.scratchMu.Lock()
	sys.free = append(sys.free, sc)
	sys.scratchMu.Unlock()
}

// factorAt factors the scaled matrix at one point under the system's
// shared pivot-order plan (primed once per System by the first
// successful factorization; replayed read-only afterwards — across
// points, frames, and both the det and transfer evaluators, which share
// the one MNA sparsity pattern). Once the plan is primed the compiled
// replay reuses sc's workspace and allocates nothing; a plan miss runs a
// private full factorization without touching the plan (see
// sparse.Workspace.FactorAssembly).
func (sys *System) factorAt(sc *evalScratch, s complex128, fscale, gscale float64) (*sparse.LU, error) {
	return sc.ws.FactorAssembly(sys.detPlan, &sys.asm, s, fscale, gscale)
}

// dets evaluates D(s) = det Y_MNA(s) at every point of pts, zero where
// singular, through the determinant-only lane replay (see
// sparse.Workspace.Dets).
func (sys *System) dets(sc *evalScratch, dst []xmath.XComplex, pts []complex128, fscale, gscale float64) {
	sc.ws.Dets(sys.detPlan, &sys.asm, pts, fscale, gscale, dst)
}

// detAt is dets at one point: the lane replay with one live lane.
func (sys *System) detAt(sc *evalScratch, s complex128, fscale, gscale float64) xmath.XComplex {
	var d [1]xmath.XComplex
	sys.dets(sc, d[:], []complex128{s}, fscale, gscale)
	return d[0]
}

// transferRHS returns sc's right-hand side loaded with the independent
// sources at their AC values, sizing sc's solve vectors on first use.
func (sys *System) transferRHS(sc *evalScratch) []complex128 {
	if sc.rhs == nil {
		sc.rhs = make([]complex128, sys.dim)
		sc.sol = make([]complex128, sys.dim)
	}
	b := sc.rhs
	clear(b)
	for i, v := range sys.rhs {
		b[i] = complex(v, 0)
	}
	return b
}

// numAt evaluates N(s) = X_out(s)·det Y_MNA(s) per eqs. (8)–(10), with
// one factorization serving both the determinant and the solve.
func (sys *System) numAt(sc *evalScratch, idx int, s complex128, fscale, gscale float64) xmath.XComplex {
	lu, err := sys.factorAt(sc, s, fscale, gscale)
	if err != nil {
		return xmath.XComplex{} // structurally singular: N ≡ 0 here
	}
	if err := lu.SolveInto(sc.sol, sys.transferRHS(sc), &sc.ws); err != nil {
		return xmath.XComplex{}
	}
	x := sc.sol
	if cmplx.IsNaN(x[idx]) || cmplx.IsInf(x[idx]) {
		return xmath.XComplex{}
	}
	return lu.Det().MulComplex(x[idx])
}

// evaluator wraps a point's value (at) and a chunk's values (chunk) as
// an interp.Evaluator: the serial Eval runs at on a scratch drawn from
// the system pool per point (allocation-free in the steady state), and
// EvalBatch fans chunks of sparse.Lanes points out over per-worker
// pooled scratches — returned when the batch drains — after serially
// priming the shared pivot plan. chunk must give each point the value at
// gives it.
func (sys *System) evaluator(name string, bound int,
	at func(sc *evalScratch, s complex128, fscale, gscale float64) xmath.XComplex,
	chunk func(sc *evalScratch, dst []xmath.XComplex, pts []complex128, fscale, gscale float64)) interp.Evaluator {
	return interp.Evaluator{
		Name:       name,
		M:          0,
		OrderBound: bound,
		Eval: func(s complex128, fscale, gscale float64) xmath.XComplex {
			sc := sys.getScratch()
			v := at(sc, s, fscale, gscale)
			sys.putScratch(sc)
			return v
		},
		EvalBatch: func(ctx context.Context, points []complex128, fscale, gscale float64, workers int) []xmath.XComplex {
			var mu sync.Mutex
			var acquired []*evalScratch
			// RunChunks returns only after every worker goroutine has
			// exited, so the scratches are idle when released.
			defer func() {
				for _, sc := range acquired {
					sys.putScratch(sc)
				}
			}()
			return interp.RunChunks(ctx, points, workers, sparse.Lanes, sys.detPlan.Primed, func() func([]xmath.XComplex, []complex128) {
				sc := sys.getScratch()
				mu.Lock()
				acquired = append(acquired, sc)
				mu.Unlock()
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
	numPoint := func(sc *evalScratch, s complex128, fscale, gscale float64) xmath.XComplex {
		return sys.numAt(sc, idx, s, fscale, gscale)
	}
	num := sys.evaluator("numerator", bound, numPoint, func(sc *evalScratch, dst []xmath.XComplex, pts []complex128, fscale, gscale float64) {
		for i, s := range pts {
			dst[i] = numPoint(sc, s, fscale, gscale)
		}
	})
	tf := &interp.TransferFunction{
		Name: fmt.Sprintf("V(%s)/source", out),
		Num:  num,
		Den:  sys.evaluator("denominator", bound, sys.detAt, sys.dets),
	}
	// Joint mode: eqs. (8)–(10) already obtain N from the same
	// factorization that gives D = det Y_MNA, so EvalBoth is the numAt
	// computation with the determinant reported alongside.
	tf.EvalBoth = func(s complex128, fscale, gscale float64) (n, d xmath.XComplex) {
		sc := sys.getScratch()
		defer sys.putScratch(sc)
		lu, err := sys.factorAt(sc, s, fscale, gscale)
		if err != nil {
			return xmath.XComplex{}, xmath.XComplex{}
		}
		det := lu.Det()
		if err := lu.SolveInto(sc.sol, sys.transferRHS(sc), &sc.ws); err != nil {
			return xmath.XComplex{}, det
		}
		x := sc.sol
		if cmplx.IsNaN(x[idx]) || cmplx.IsInf(x[idx]) {
			return xmath.XComplex{}, det
		}
		return det.MulComplex(x[idx]), det
	}
	tf.BothReady = sys.detPlan.Primed
	return tf, nil
}
