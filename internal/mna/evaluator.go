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

// fill returns the writer of Y_MNA's entries at one point, in the order
// of sys.pos: conductance-dimension entries multiplied by gscale,
// structural entries untouched, frequency-proportional entries by
// s·fscale.
func (sys *System) fill(s complex128, fscale, gscale float64) sparse.Fill {
	sc := s * complex(fscale, 0)
	ng, nstr := len(sys.gDim), len(sys.gDim)+len(sys.structural)
	return func(k0 int, dst []complex128) {
		for d := range dst {
			switch k := k0 + d; {
			case k < ng:
				dst[d] = complex(sys.gDim[k].v*gscale, 0)
			case k < nstr:
				dst[d] = complex(sys.structural[k-ng].v, 0)
			default:
				dst[d] = sc * complex(sys.sProp[k-nstr].v, 0)
			}
		}
	}
}

// evalScratch is the reusable per-worker evaluation state of the one
// MNA sparsity pattern: the factorization workspace (assembly values and
// LU) and the RHS and solution vectors of the transfer solve.
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
	return &evalScratch{
		rhs: make([]complex128, sys.dim),
		sol: make([]complex128, sys.dim),
	}
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
	return sc.ws.FactorAssembly(sys.detPlan, sys.dim, sys.pos, sys.fill(s, fscale, gscale))
}

// detAt evaluates D(s) = det Y_MNA(s), zero when singular.
func (sys *System) detAt(sc *evalScratch, s complex128, fscale, gscale float64) xmath.XComplex {
	lu, err := sys.factorAt(sc, s, fscale, gscale)
	if err != nil {
		return xmath.XComplex{}
	}
	return lu.Det()
}

// numAt evaluates N(s) = X_out(s)·det Y_MNA(s) per eqs. (8)–(10), with
// one factorization serving both the determinant and the solve.
func (sys *System) numAt(sc *evalScratch, idx int, s complex128, fscale, gscale float64) xmath.XComplex {
	lu, err := sys.factorAt(sc, s, fscale, gscale)
	if err != nil {
		return xmath.XComplex{} // structurally singular: N ≡ 0 here
	}
	b := sc.rhs
	for i := range b {
		b[i] = 0
	}
	for i, v := range sys.rhs {
		b[i] = complex(v, 0)
	}
	if err := lu.SolveInto(sc.sol, b, &sc.ws); err != nil {
		return xmath.XComplex{}
	}
	x := sc.sol
	if cmplx.IsNaN(x[idx]) || cmplx.IsInf(x[idx]) {
		return xmath.XComplex{}
	}
	return lu.Det().MulComplex(x[idx])
}

// evaluator wraps a per-point function of (scratch, s, fscale, gscale)
// as an interp.Evaluator: the serial Eval draws its scratch from the
// system pool per point (allocation-free in the steady state), and
// EvalBatch fans out over per-worker pooled scratches — returned when
// the batch drains — after serially priming the shared pivot plan.
func (sys *System) evaluator(name string, bound int, at func(sc *evalScratch, s complex128, fscale, gscale float64) xmath.XComplex) interp.Evaluator {
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
			// RunBatch returns only after every worker goroutine has
			// exited, so the scratches are idle when released.
			defer func() {
				for _, sc := range acquired {
					sys.putScratch(sc)
				}
			}()
			return interp.RunBatch(ctx, points, workers, sys.detPlan.Primed, func() func(complex128) xmath.XComplex {
				sc := sys.getScratch()
				mu.Lock()
				acquired = append(acquired, sc)
				mu.Unlock()
				return func(s complex128) xmath.XComplex {
					return at(sc, s, fscale, gscale)
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
	return sys.evaluator("denominator", sys.OrderBound(), sys.detAt)
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
	num := sys.evaluator("numerator", bound, func(sc *evalScratch, s complex128, fscale, gscale float64) xmath.XComplex {
		return sys.numAt(sc, idx, s, fscale, gscale)
	})
	tf := &interp.TransferFunction{
		Name: fmt.Sprintf("V(%s)/source", out),
		Num:  num,
		Den:  sys.evaluator("denominator", bound, sys.detAt),
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
		b := sc.rhs
		for i := range b {
			b[i] = 0
		}
		for i, v := range sys.rhs {
			b[i] = complex(v, 0)
		}
		if err := lu.SolveInto(sc.sol, b, &sc.ws); err != nil {
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
