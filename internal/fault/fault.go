// Package fault provides a deterministic, seedable fault-injecting
// wrapper around any engine.Backend, for exercising the generator's
// robustness machinery: typed singular-point errors, frame retries with
// rotated evaluation geometry, the stall/divergence watchdogs, and
// degraded partial results under engine.Options.AllowDegraded.
//
// The wrapper is registered under the "fault" prefix, so
//
//	eng, _ := engine.New(engine.Config{Backend: "fault:nodal"})
//
// runs the nodal formulation with DefaultPlan injected (a pole pinned to
// evaluation angle 0, which fails every frame's first attempt and heals
// on its first rotated retry). Tests and callers that need a specific
// plan compose directly with New or WrapFormulation.
//
// Determinism contract: whether a point solve is faulted is a pure hash
// of (point, fscale, gscale, Seed) — never of call order or timing — so
// a plan injects the identical fault set whether points are evaluated
// serially or by the worker pool, preserving the pipeline's bit-identical
// serial-vs-parallel guarantee. The one order-sensitive knob is
// TransientOneIn's first-evaluation memory, which is keyed (not
// counted), so it too commutes across dispatch orders.
package fault

import (
	"context"
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/interp"
	"repro/internal/xmath"
	"repro/pkg/engine"
)

// Plan is a deterministic fault plan. The zero value injects nothing.
// A Plan carries per-run state (the transient-fault memory and the
// cancellation trigger): use one Plan per generation run, or reuse one
// deliberately to model faults that heal across runs.
type Plan struct {
	// Seed perturbs the fault hash: two plans with the same rates and
	// different seeds fail different point sets.
	Seed int64
	// SingularOneIn injects a NaN "singular solve" at roughly one in
	// this many evaluation points, hash-selected (1 = every point,
	// 0 disables).
	SingularOneIn int
	// CorruptOneIn injects an Inf "overflowed solve" at roughly one in
	// this many evaluation points (0 disables).
	CorruptOneIn int
	// TransientOneIn injects a NaN at roughly one in this many points,
	// but only the first time each exact (s, fscale, gscale) triple is
	// evaluated by one evaluator of this Plan (the numerator, the
	// denominator or the joint one) — later evaluations of the same triple
	// succeed. 0 disables.
	TransientOneIn int
	// SingularAngle, with AngleSet, fails every point whose phase
	// matches the angle within AngleTol — a pole pinned to an evaluation
	// angle. Angle 0 is the +1 point present in every un-rotated frame,
	// so it forces exactly one retry per frame.
	SingularAngle float64
	// AngleSet enables SingularAngle (so angle 0 is expressible).
	AngleSet bool
	// AngleTol is the phase tolerance of SingularAngle; 0 selects 1e-9.
	AngleTol float64
	// Latency is slept once per evaluator dispatch — per point on the
	// serial path, per batch on the parallel path, per chunk of the
	// joint form — to exercise deadlines mid-run. Values are unaffected.
	Latency time.Duration
	// CancelAfter, when positive, fires OnCancel once after that many
	// point evaluations — mid-frame context cancellation.
	CancelAfter int64
	// OnCancel is the hook CancelAfter fires (typically a
	// context.CancelFunc).
	OnCancel func()

	evals    atomic.Int64 // points evaluated (CancelAfter trigger)
	canceled sync.Once
	seen     sync.Map // transient memory: tripleKey → struct{}{}
}

// tripleKey identifies one exact evaluation for the transient memory.
// The evaluator is part of it: a numerator and a denominator pass may
// run concurrently, so neither may heal the other's faults.
type tripleKey struct {
	ev   string
	s    complex128
	f, g float64
}

// faultKind is the decided outcome for one point.
type faultKind int

const (
	faultNone faultKind = iota
	faultNaN
	faultInf
)

// splitmix64 is the 64-bit finalizer of the SplitMix64 generator — a
// cheap, well-mixed hash for the per-point fault decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash mixes the exact bit patterns of the evaluation triple with the
// seed. Bit patterns, not values: the decision must be reproducible to
// the last bit across dispatch orders.
func (p *Plan) hash(s complex128, f, g float64) uint64 {
	h := splitmix64(uint64(p.Seed) ^ 0x243f6a8885a308d3)
	for _, b := range [...]uint64{
		math.Float64bits(real(s)), math.Float64bits(imag(s)),
		math.Float64bits(f), math.Float64bits(g),
	} {
		h = splitmix64(h ^ b)
	}
	return h
}

// decide counts the evaluation (firing CancelAfter when due) and
// classifies the point against the plan.
func (p *Plan) decide(ev string, s complex128, f, g float64) faultKind {
	n := p.evals.Add(1)
	if p.CancelAfter > 0 && n >= p.CancelAfter && p.OnCancel != nil {
		p.canceled.Do(p.OnCancel)
	}
	if p.AngleSet {
		tol := p.AngleTol
		if tol == 0 {
			tol = 1e-9
		}
		d := math.Abs(cmplx.Phase(s) - p.SingularAngle)
		if d > math.Pi {
			d = 2*math.Pi - d
		}
		if d <= tol {
			return faultNaN
		}
	}
	h := p.hash(s, f, g)
	if p.SingularOneIn > 0 && h%uint64(p.SingularOneIn) == 0 {
		return faultNaN
	}
	if p.CorruptOneIn > 0 && (h>>16)%uint64(p.CorruptOneIn) == 0 {
		return faultInf
	}
	if p.TransientOneIn > 0 && (h>>32)%uint64(p.TransientOneIn) == 0 {
		if _, loaded := p.seen.LoadOrStore(tripleKey{ev, s, f, g}, struct{}{}); !loaded {
			return faultNaN
		}
	}
	return faultNone
}

// inject replaces v per the decided kind.
func inject(v xmath.XComplex, k faultKind) xmath.XComplex {
	switch k {
	case faultNaN:
		return xmath.CNaN()
	case faultInf:
		return xmath.CInf()
	}
	return v
}

func (p *Plan) sleep() {
	if p.Latency > 0 {
		time.Sleep(p.Latency)
	}
}

// wrapEvaluator returns ev with the plan's faults injected into both the
// serial and the batched path.
func wrapEvaluator(ev interp.Evaluator, p *Plan) interp.Evaluator {
	inner := ev
	ev.Eval = func(s complex128, fscale, gscale float64) xmath.XComplex {
		p.sleep()
		k := p.decide(inner.Name, s, fscale, gscale)
		return inject(inner.Eval(s, fscale, gscale), k)
	}
	if inner.EvalBatch != nil {
		ev.EvalBatch = func(ctx context.Context, points []complex128, fscale, gscale float64, workers int) []xmath.XComplex {
			p.sleep()
			values := inner.EvalBatch(ctx, points, fscale, gscale, workers)
			for i := range values {
				if i < len(points) {
					values[i] = inject(values[i], p.decide(inner.Name, points[i], fscale, gscale))
				}
			}
			return values
		}
	}
	return ev
}

// WrapFormulation returns a copy of f whose evaluators (Num, Den and
// the joint form EvalBothChunk) pass through the plan. The input
// formulation is not modified.
func WrapFormulation(f *engine.Formulation, p *Plan) *engine.Formulation {
	wf := *f
	tf := *f.TF
	tf.Num = wrapEvaluator(tf.Num, p)
	tf.Den = wrapEvaluator(tf.Den, p)
	if inner := f.TF.EvalBothChunk; inner != nil {
		tf.EvalBothChunk = func(num, den []xmath.XComplex, pts []complex128, fscale, gscale float64) {
			p.sleep()
			inner(num, den, pts, fscale, gscale)
			for i, s := range pts {
				// One factorization, one decision: both polynomials see
				// the same fault, mirroring a real singular solve.
				k := p.decide("joint", s, fscale, gscale)
				num[i], den[i] = inject(num[i], k), inject(den[i], k)
			}
		}
	}
	wf.TF = &tf
	return &wf
}

// Backend wraps an inner engine.Backend, injecting the plan's faults
// into every formulation it produces.
type Backend struct {
	inner engine.Backend
	plan  *Plan
}

// New wraps inner with a fault plan. The plan must not be nil.
func New(inner engine.Backend, plan *Plan) *Backend {
	if plan == nil {
		panic("fault: New with nil plan")
	}
	return &Backend{inner: inner, plan: plan}
}

// Name returns "fault:" + the inner backend's name.
func (b *Backend) Name() string { return "fault:" + b.inner.Name() }

// Plan returns the backend's fault plan (shared by every formulation it
// produces).
func (b *Backend) Plan() *Plan { return b.plan }

// Formulate formulates through the inner backend and injects the plan.
func (b *Backend) Formulate(c *engine.Circuit, spec engine.Spec) (*engine.Formulation, error) {
	f, err := b.inner.Formulate(c, spec)
	if err != nil {
		return nil, err
	}
	wf := WrapFormulation(f, b.plan)
	wf.Backend = b.Name()
	return wf, nil
}

// DefaultPlan is the plan the registered "fault" wrapper uses: a pole
// pinned to evaluation angle 0 — a point present in every un-rotated
// frame — so every frame fails its first attempt and heals on its first
// rotated retry. Deterministic, safe to run to completion, and visible
// in the result as FrameRetries with fault events on its QualityReport.
func DefaultPlan() *Plan {
	return &Plan{Seed: 1, AngleSet: true, SingularAngle: 0}
}

func init() {
	engine.RegisterWrapper("fault", func(inner engine.Backend) engine.Backend {
		return New(inner, DefaultPlan())
	})
}
