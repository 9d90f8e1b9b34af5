// Package interp implements polynomial interpolation of network-function
// coefficients at points on (scaled) circles in the s-plane.
//
// It provides the two baseline methods the paper examines before
// introducing adaptive scaling:
//
//   - UnitCircle — interpolation points on the unit circle, no scaling
//     (paper §2, Table 1a). For integrated circuits the coefficient spread
//     exceeds the ~1e-13 relative noise floor of float64 arithmetic and
//     most coefficients drown (the method's documented failure mode).
//   - FixedScale — a single frequency/conductance scale pair (paper §3,
//     Table 1b), which repairs a window of about 13−σ decades and works
//     up to roughly tenth-order polynomials.
//
// The adaptive algorithm (paper §3.2) lives in internal/core and drives
// Run repeatedly with evolving scale factors.
package interp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dft"
	"repro/internal/poly"
	"repro/internal/xmath"
)

// Evaluator is one polynomial of a network function presented as a black
// box: a way to evaluate P(s) with the circuit's conductances multiplied
// by gscale and capacitances by fscale, plus the structural facts the
// scaling law needs. internal/nodal builds evaluators from circuits;
// tests build them from explicit polynomials.
//
// Every evaluator represents a polynomial with real coefficients — the
// premise of the whole interpolation scheme (the inverse DFT's real
// parts are the coefficients) — so P(conj s) = conj P(s) and only the
// upper half-circle points carry information. Run exploits this by
// evaluating the dft.HermitianHalf non-redundant points of a frame and
// mirroring the rest by conjugation (dft.HermitianInverse).
type Evaluator struct {
	// Name labels the polynomial in diagnostics ("numerator", ...).
	Name string
	// M is the homogeneity degree: every term of the polynomial is a
	// product of exactly M admittance factors, so coefficient i carries
	// f^i·g^(M−i) under scaling (paper eq. 11).
	M int
	// OrderBound is the upper estimate of the polynomial order (the
	// paper: the number of capacitors; never above M).
	OrderBound int
	// Degrees, when non-nil, is a proven structural degree window: every
	// coefficient outside [Degrees.Lo, Degrees.Hi] is exactly zero.
	// internal/nodal derives it from the admittance pattern; evaluators
	// that cannot prove one leave it nil, which means [0, OrderBound]
	// (see DegreeWindow).
	Degrees *DegreeWindow
	// Eval evaluates the polynomial at s with scaling (fscale, gscale).
	Eval func(s complex128, fscale, gscale float64) xmath.XComplex
	// EvalBatch, when non-nil, evaluates a whole frame of points at once
	// with up to workers goroutines. Implementations must be
	// deterministic: the returned values must be bit-identical to calling
	// Eval on each point in order, regardless of workers. Evaluators that
	// cannot guarantee this must leave EvalBatch nil, which makes
	// EvalPointsInto fall back to the serial loop.
	//
	// ctx carries cancellation: once it is done, implementations must
	// stop dispatching further points and return promptly (slots never
	// evaluated stay zero), leaving no goroutines behind. Callers detect
	// the truncation through ctx.Err(); implementations built on
	// RunBatch, RunChunks or ParallelFor inherit this behavior.
	EvalBatch func(ctx context.Context, points []complex128, fscale, gscale float64, workers int) []xmath.XComplex
}

// DegreeWindow is a range of powers of s outside which a polynomial's
// coefficients are provably zero. Lo > Hi means the polynomial is
// identically zero.
type DegreeWindow struct {
	Lo, Hi int
}

// DegreeWindow returns the evaluator's effective window: Degrees
// clipped to [0, OrderBound], or [0, OrderBound] when Degrees is nil.
// lo > hi means every coefficient is a structural zero.
func (ev Evaluator) DegreeWindow() (lo, hi int) {
	lo, hi = 0, ev.OrderBound
	if w := ev.Degrees; w != nil {
		lo, hi = max(lo, w.Lo), min(hi, w.Hi)
	}
	return lo, hi
}

// Workers resolves a core.Config-style parallelism knob to a concrete
// worker count: 0 (or negative) means GOMAXPROCS, anything else is taken
// literally.
func Workers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// EvalPointsInto evaluates the polynomial at every point of a frame,
// writing into dst, which must have len(points) entries. With
// parallelism 1 — or when the evaluator has no batch implementation —
// the serial loop fills dst directly and, when the evaluator's Eval
// draws its scratch from a pool as the circuit backends do, the whole
// frame evaluates without allocating. Otherwise it dispatches EvalBatch
// with the resolved worker count and copies into dst; both paths return
// bit-identical values.
//
// When ctx is canceled (or its deadline passes) mid-frame, evaluation
// stops dispatching further points and returns the partially-filled
// slice alongside ctx.Err(). The cancellation checks do not perturb the
// arithmetic.
func (ev Evaluator) EvalPointsInto(ctx context.Context, dst []xmath.XComplex, points []complex128, fscale, gscale float64, parallelism int) ([]xmath.XComplex, error) {
	if len(dst) != len(points) {
		panic("interp: destination length does not match point count")
	}
	w := Workers(parallelism)
	if w > 1 && ev.EvalBatch != nil {
		values := ev.EvalBatch(ctx, points, fscale, gscale, w)
		copy(dst, values)
		return dst, ctx.Err()
	}
	for i, s := range points {
		if err := ctx.Err(); err != nil {
			return dst, err
		}
		dst[i] = ev.Eval(s, fscale, gscale)
	}
	return dst, ctx.Err()
}

// ParallelFor runs fn(i) for i in [0, n) across up to workers
// goroutines, pulling indices from a shared atomic counter. With
// workers ≤ 1 (or n ≤ 1) it degenerates to a plain loop on the calling
// goroutine. Once ctx is done, no further indices are claimed (indices
// already started still finish); the call returns after every in-flight
// fn has completed, so no goroutine outlives it. The caller learns about
// the truncation from ctx.Err().
func ParallelFor(ctx context.Context, n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// RunBatch is the shared skeleton for EvalBatch implementations whose
// per-point work is independent given some shared read-only state that
// the first evaluation establishes (in practice: a sparse pivot-order
// plan primed by the first successful factorization). It is RunChunks
// with one point per chunk.
func RunBatch(ctx context.Context, points []complex128, workers int, ready func() bool, newWorker func() func(s complex128) xmath.XComplex) []xmath.XComplex {
	return RunChunks(ctx, points, workers, 1, ready, func() func([]xmath.XComplex, []complex128) {
		eval := newWorker()
		return func(dst []xmath.XComplex, pts []complex128) { dst[0] = eval(pts[0]) }
	})
}

// RunChunks is RunBatch for workers that evaluate up to chunk points per
// call, writing the value of pts[i] to dst[i].
//
// Points are evaluated one at a time until ready() reports the shared
// state is established, so the priming point is always the same one the
// serial path would prime with; the remaining points are then cut into
// chunks of consecutive points that up to workers goroutines claim in
// turn, each goroutine owning a chunk function from newWorker (carrying
// per-worker scratch state). ready may be nil when there is no priming
// phase.
//
// Each point's value must be a pure function of (point, shared state) —
// not of the other points of its chunk — so the output is bit-identical
// to evaluating every point serially, whatever the chunk size and the
// worker count.
//
// Cancellation: once ctx is done, no further chunks are claimed; chunks
// already being evaluated finish, the pool drains, and the partially
// filled slice is returned (slots never evaluated stay zero). RunChunks
// never leaks a goroutine — the caller regains control only after every
// worker has exited.
func RunChunks(ctx context.Context, points []complex128, workers, chunk int, ready func() bool, newWorker func() func(dst []xmath.XComplex, pts []complex128)) []xmath.XComplex {
	values := make([]xmath.XComplex, len(points))
	start := 0
	var primer func([]xmath.XComplex, []complex128)
	if ready != nil && !ready() {
		primer = newWorker()
		for start < len(points) && !ready() {
			if ctx.Err() != nil {
				return values
			}
			primer(values[start:start+1], points[start:start+1])
			start++
		}
	}
	// span returns the points of chunk c after the priming ones.
	span := func(c int) (i, j int) {
		i = start + c*chunk
		return i, min(i+chunk, len(points))
	}
	chunks := (len(points) - start + chunk - 1) / chunk
	if chunks <= 0 {
		return values
	}
	workers = min(workers, chunks)
	if workers <= 1 {
		eval := primer
		if eval == nil {
			eval = newWorker()
		}
		for c := range chunks {
			if ctx.Err() != nil {
				return values
			}
			i, j := span(c)
			eval(values[i:j], points[i:j])
		}
		return values
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		eval := primer // reuse the priming worker's scratch on goroutine 0
		primer = nil
		go func() {
			defer wg.Done()
			if eval == nil {
				eval = newWorker()
			}
			for {
				if ctx.Err() != nil {
					return
				}
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				i, j := span(c)
				eval(values[i:j], points[i:j])
			}
		}()
	}
	wg.Wait()
	return values
}

// FromPoly wraps an explicit polynomial as an Evaluator with homogeneity
// degree m — the synthetic form used by tests and the SDG example: the
// "circuit" is the polynomial itself, scaled per eq. (11).
func FromPoly(name string, p poly.XPoly, m int) Evaluator {
	return Evaluator{
		Name:       name,
		M:          m,
		OrderBound: len(p) - 1,
		Eval: func(s complex128, fscale, gscale float64) xmath.XComplex {
			return p.Normalize(fscale, gscale, m).Eval(xmath.FromComplex(s))
		},
		EvalBatch: func(ctx context.Context, points []complex128, fscale, gscale float64, workers int) []xmath.XComplex {
			norm := p.Normalize(fscale, gscale, m)
			values := make([]xmath.XComplex, len(points))
			ParallelFor(ctx, len(points), workers, func(i int) {
				values[i] = norm.Eval(xmath.FromComplex(points[i]))
			})
			return values
		},
	}
}

// TransferFunction bundles the two polynomials of H(s) = N(s)/D(s).
//
// EvalBothChunk, when non-nil, evaluates numerator and denominator at a
// chunk of points, each from a single matrix factorization — the joint
// mode core.GenerateTransferFunction drives through its shared
// evaluation cache, sparse.Lanes points at a time. Implementations must
// be deterministic and must give every point the values, bit-identical
// to Num.Eval/Den.Eval at the same (s, fscale, gscale), that it gets
// alone, whatever the other points of its chunk; producers that cannot
// guarantee that (e.g. evaluators whose numerator uses a structurally
// different matrix) leave it nil and the generator falls back to the
// two independent passes.
//
// BothReady, when non-nil, reports whether the shared read-only state
// behind the joint form (in practice a sparse pivot-order plan) is
// already primed; it plays the role of RunChunks' ready() so the cached
// joint path keeps the serial-priming determinism contract.
type TransferFunction struct {
	Name string
	Num  Evaluator
	Den  Evaluator

	// EvalBothChunk writes (N(s), D(s)) at each point of pts to the same
	// index of num and den. Optional.
	EvalBothChunk func(num, den []xmath.XComplex, pts []complex128, fscale, gscale float64)
	// EvalBoth, the former per-point joint form, is deprecated: nothing
	// sets or reads it. It remains only because perfbench's timing
	// wrapper (timeFormulation) still names it, and goes once that
	// wrapper times EvalBothChunk instead. (No "Deprecated:" marker, so
	// that staticcheck does not fail on the wrapper's use.)
	EvalBoth func(s complex128, fscale, gscale float64) (num, den xmath.XComplex)
	// BothReady reports whether the joint form's shared state is primed.
	// Optional.
	BothReady func() bool
}

// Result is the outcome of a single interpolation run.
type Result struct {
	// FScale, GScale are the scale factors used.
	FScale, GScale float64
	// K is the number of interpolation points.
	K int
	// Raw holds the complex IDFT outputs before taking real parts: the
	// imaginary residue is pure round-off noise and is what Table 1a
	// displays to demonstrate the failure of the unscaled method.
	Raw []xmath.XComplex
	// Normalized holds the real parts: the normalized coefficients
	// p'_i = p_i·f^i·g^(M−i).
	Normalized poly.XPoly
	// Denormalized holds p_i = p'_i/(f^i·g^(M−i)) in extended range.
	Denormalized poly.XPoly
	// Solves counts the evaluator calls actually dispatched — with the
	// Hermitian mirroring scheme only ⌊K/2⌋+1 of the K points.
	Solves int
}

// Run interpolates the evaluator's polynomial with the given scale
// factors using k points on the unit circle (k must exceed the polynomial
// order; use ev.OrderBound+1 when in doubt).
func Run(ev Evaluator, fscale, gscale float64, k int) Result {
	r, _ := RunCtx(context.Background(), ev, fscale, gscale, k, 1)
	return r
}

// RunCtx is Run with an explicit parallelism knob (0 = GOMAXPROCS,
// 1 = serial) under a context: cancellation mid-frame aborts the point
// evaluations and returns a zero Result alongside ctx.Err(). The Result
// is bit-identical across parallelism settings; see Evaluator.EvalBatch.
func RunCtx(ctx context.Context, ev Evaluator, fscale, gscale float64, k, parallelism int) (Result, error) {
	if k <= 0 {
		panic("interp: point count must be positive")
	}
	// Real coefficients ⇒ P(conj s) = conj P(s): evaluate only the upper
	// half-circle and mirror the rest by conjugation. Serial and parallel
	// runs both use the mirrored scheme, so they stay bit-identical.
	half := dft.HermitianHalf(k)
	pts := dft.UnitCirclePoints(k)
	values, err := ev.EvalPointsInto(ctx, make([]xmath.XComplex, half), pts[:half], fscale, gscale, parallelism)
	if err != nil {
		return Result{}, err
	}
	raw := dft.HermitianInverse(values, k)
	normalized := make(poly.XPoly, k)
	for i, c := range raw {
		normalized[i] = c.Real()
	}
	return Result{
		FScale:       fscale,
		GScale:       gscale,
		K:            k,
		Raw:          raw,
		Normalized:   normalized,
		Denormalized: normalized.Denormalize(fscale, gscale, ev.M),
		Solves:       half,
	}, nil
}

// UnitCircle is the unscaled baseline (paper §2): K = orderBound+1 points
// on the unit circle, scale factors 1.
func UnitCircle(ev Evaluator) Result {
	return Run(ev, 1, 1, ev.OrderBound+1)
}

// FixedScale is the single-scale-factor method (paper §3, Table 1b).
func FixedScale(ev Evaluator, fscale, gscale float64) Result {
	return Run(ev, fscale, gscale, ev.OrderBound+1)
}

// RunRealPoints interpolates using K equally spaced points on the real
// segment [f/K, f] instead of the circle |s| = f, solving the Vandermonde
// system directly. This is the strawman the paper's §2.1 dismisses
// ("the use of K equally-spaced interpolation points in the unit circle
// gives the best results concerning numerical accuracy and stability"):
// real-point Vandermonde matrices are exponentially ill-conditioned, so
// the recovered coefficients degrade orders of magnitude faster than the
// DFT path. Exists for the ablation benchmarks/tests.
func RunRealPoints(ev Evaluator, fscale, gscale float64, k int) Result {
	if k <= 0 {
		panic("interp: point count must be positive")
	}
	pts := make([]float64, k)
	for i := range pts {
		pts[i] = float64(i+1) / float64(k)
	}
	values := make([]xmath.XComplex, k)
	for i, x := range pts {
		values[i] = ev.Eval(complex(x, 0), fscale, gscale)
	}
	// Solve the Vandermonde system V·p = values by Gaussian elimination
	// in extended range (factor out the magnitude like dft.Inverse does).
	var maxAbs xmath.XFloat
	for _, v := range values {
		if a := v.AbsX(); a.CmpAbs(maxAbs) > 0 {
			maxAbs = a
		}
	}
	normalized := make(poly.XPoly, k)
	raw := make([]xmath.XComplex, k)
	if !maxAbs.Zero() {
		scale := xmath.FromXFloat(maxAbs)
		m := make([][]float64, k)
		b := make([]complex128, k)
		for i := range m {
			m[i] = make([]float64, k)
			pw := 1.0
			for j := 0; j < k; j++ {
				m[i][j] = pw
				pw *= pts[i]
			}
			b[i] = values[i].Div(scale).Complex128()
		}
		solveVandermonde(m, b)
		for i := range b {
			raw[i] = xmath.FromComplex(b[i]).Mul(scale)
			normalized[i] = raw[i].Real()
		}
	}
	return Result{
		FScale:       fscale,
		GScale:       gscale,
		K:            k,
		Raw:          raw,
		Normalized:   normalized,
		Denormalized: normalized.Denormalize(fscale, gscale, ev.M),
		Solves:       k,
	}
}

// solveVandermonde does in-place Gaussian elimination with partial
// pivoting on a real matrix with a complex RHS.
func solveVandermonde(m [][]float64, b []complex128) {
	n := len(m)
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(m[i][k]) > math.Abs(m[p][k]) {
				p = i
			}
		}
		m[k], m[p] = m[p], m[k]
		b[k], b[p] = b[p], b[k]
		piv := m[k][k]
		if piv == 0 {
			continue
		}
		for i := k + 1; i < n; i++ {
			f := m[i][k] / piv
			if f == 0 {
				continue
			}
			for j := k; j < n; j++ {
				m[i][j] -= f * m[k][j]
			}
			b[i] -= complex(f, 0) * b[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= complex(m[i][j], 0) * b[j]
		}
		if m[i][i] != 0 {
			b[i] = sum / complex(m[i][i], 0)
		}
	}
}

// NoiseExp is the decimal exponent of the relative round-off noise floor
// of the interpolation: errors land at about 10^NoiseExp·max_i|p'_i| in
// 16-decimal-digit arithmetic (paper §2.2, citing Vlach/Singhal).
const NoiseExp = -13

// ValidRegion locates the window of trustworthy coefficients in a
// normalized coefficient vector: the maximal contiguous run containing
// the largest-magnitude coefficient in which every coefficient satisfies
//
//	|p'_i| ≥ 10^(NoiseExp+σ)·max_j|p'_j|
//
// so that each retains at least σ significant digits (paper §3.2:
// "all coefficients which prior to denormalization are smaller than
// 10^(−13+6)·max must be neglected"). ok is false when the vector is
// entirely zero.
func ValidRegion(normalized poly.XPoly, sigDigits int) (lo, hi int, ok bool) {
	return ValidRegionWithThreshold(normalized, Threshold(normalized, sigDigits))
}

// ValidRegionWithThreshold locates the valid region against an explicit
// threshold — the form the adaptive algorithm uses when eq. (17)
// reduction is active and the threshold must also dominate the
// subtraction error of the deflated known coefficients. ok is false when
// no coefficient reaches the threshold.
func ValidRegionWithThreshold(normalized poly.XPoly, threshold xmath.XFloat) (lo, hi int, ok bool) {
	max, m := normalized.MaxAbs()
	if m < 0 || threshold.Zero() || max.CmpAbs(threshold) < 0 {
		return 0, 0, false
	}
	above := func(i int) bool {
		return normalized[i].CmpAbs(threshold) >= 0
	}
	lo, hi = m, m
	for lo > 0 && above(lo-1) {
		lo--
	}
	for hi < len(normalized)-1 && above(hi+1) {
		hi++
	}
	return lo, hi, true
}

// Threshold returns the validity threshold 10^(NoiseExp+σ)·max for a
// normalized coefficient vector (zero for the zero vector).
func Threshold(normalized poly.XPoly, sigDigits int) xmath.XFloat {
	max, m := normalized.MaxAbs()
	if m < 0 {
		return xmath.XFloat{}
	}
	return max.Abs().Mul(xmath.Pow10(NoiseExp + sigDigits))
}

// NextScales implements the scale-factor update of eqs. (13)–(15):
// given the normalized magnitudes pm (the maximum, at index m) and pe
// (the boundary coefficient, at index e) of the previous valid region, it
// solves pe·q^e = pm·q^m·10^(−NoiseExp+r) for q and splits it evenly
// between the two factors:
//
//	f' = f·√q    g' = g/√q
//
// so the relative boost between coefficient indices i and j is exactly
// q^(i−j) and neither factor explodes (paper §3.2: "simultaneous scaling
// of both ... to avoid using too large (>~1e18) ... scale factors").
// With e > m the window moves toward higher powers of s (eq. 14); with
// e < m toward lower powers (eq. 15). When e == m (single-coefficient
// region) the full 10^(−NoiseExp+r) jump is applied across one index in
// the direction dir (+1 toward higher powers, −1 toward lower); dir is
// ignored otherwise.
func NextScales(f, g float64, pm, pe xmath.XFloat, m, e int, r float64, dir int) (fNew, gNew float64) {
	dist := e - m
	if dist == 0 {
		if dir < 0 {
			dist = -1
		} else {
			dist = 1
		}
	}
	log10q := (pm.Abs().Log10() - pe.Abs().Log10() + float64(-NoiseExp) + r) / float64(dist)
	sqrtQ := math.Pow(10, log10q/2)
	return f * sqrtQ, g / sqrtQ
}

// NextScalesSingle is the single-factor variant of NextScales: the whole
// q goes into the frequency scale and g stays put. The paper's §3.2
// warns that this "occasionally" produces factors beyond ~1e18 that
// increase the evaluation error; it exists here for the ablation
// benchmarks that demonstrate exactly that.
func NextScalesSingle(f, g float64, pm, pe xmath.XFloat, m, e int, r float64, dir int) (fNew, gNew float64) {
	dist := e - m
	if dist == 0 {
		if dir < 0 {
			dist = -1
		} else {
			dist = 1
		}
	}
	log10q := (pm.Abs().Log10() - pe.Abs().Log10() + float64(-NoiseExp) + r) / float64(dist)
	return f * math.Pow(10, log10q), g
}

// RepairScales implements the gap-repair rule of eq. (16): when
// incorrect coefficients remain between two valid regions generated with
// (f1, g1) and (f2, g2), interpolate the scale factors geometrically:
//
//	log(fnew/gnew) = (log(f1/g1) + log(f2/g2))/2
//	log(gnew)      = (log g1 + log g2)/2
func RepairScales(f1, g1, f2, g2 float64) (fNew, gNew float64) {
	gNew = math.Pow(10, (math.Log10(g1)+math.Log10(g2))/2)
	ratio := math.Pow(10, (math.Log10(f1/g1)+math.Log10(f2/g2))/2)
	return ratio * gNew, gNew
}

// String summarizes a result for diagnostics.
func (r Result) String() string {
	lo, hi, ok := ValidRegion(r.Normalized, 6)
	if !ok {
		return fmt.Sprintf("interp(f=%.3g, g=%.3g, K=%d): all zero", r.FScale, r.GScale, r.K)
	}
	return fmt.Sprintf("interp(f=%.3g, g=%.3g, K=%d): valid s^%d..s^%d", r.FScale, r.GScale, r.K, lo, hi)
}
