package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/dft"
	"repro/internal/interp"
	"repro/internal/poly"
	"repro/internal/xmath"
)

// guardPoints is the number of extra interpolation points beyond the
// window size. Interpolating with more points than the polynomial order
// needs leaves output slots that are structurally zero ("(5) should be
// identically 0 for those coefficients over the n-th power"). Their
// residue directly measures the noise this evaluation actually achieved —
// including systematic determinant-evaluation error at extreme scale
// factors, which no a-priori model catches.
const guardPoints = 3

// generator runs the adaptive algorithm for one polynomial. The pipeline
// stages are pluggable: policy plans each interpolation's scale factors
// (eqs. 13–16), classify detects valid regions, and newDeflation/apply
// implement the eq. (17) problem-size reduction inside interpolate.
type generator struct {
	ctx      context.Context
	ev       interp.Evaluator
	cfg      Config
	n        int // order bound
	res      *Result
	points   map[int][]complex128 // unit-circle point sets by K
	policy   scalePolicy
	classify windowClassifier
	// [wlo, whi] is the evaluator's structural degree window
	// (interp.Evaluator.DegreeWindow): no frame aims outside it, no value
	// outside it is accepted, and whatever outside it is still Unknown
	// when the run ends becomes a structural zero.
	wlo, whi int
	// frames counts evaluation frames dispatched, successful or failed —
	// the unit the iteration budget is charged in (equal to
	// len(res.Iterations) on a fault-free run).
	frames int
	// abandoned marks targets given up on under AllowDegraded after
	// their frames exhausted every retry; nextTarget skips them. Nil
	// until the first abandonment.
	abandoned []bool
	// degraded records that the run gave up on part of the range under
	// AllowDegraded; finalizeQuality forces the report tier down from it.
	degraded bool
	// restart carries the reason a warm replay aborted mid-flight; when
	// set, run returned errColdRestart and GenerateContext reruns the
	// whole generation cold (see warmstart.go).
	restart string
	// Reusable per-run frame scratch: the point-value and raw-coefficient
	// buffers live only inside one interpolate call (normalized is the
	// value that escapes into the Result), so they and the transform
	// scratch are reused across every frame of the run.
	vals []xmath.XComplex
	raw  []xmath.XComplex
	neg  []complex128
	dfts dft.Scratch
}

// frameBuf re-slices buf to n, growing it only when capacity is short.
func frameBuf(buf *[]xmath.XComplex, n int) []xmath.XComplex {
	if cap(*buf) < n {
		*buf = make([]xmath.XComplex, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func (g *generator) run() error {
	if g.wlo > g.whi {
		// Structurally singular: every coefficient is a structural zero.
		return nil
	}
	frames, done, err := g.startFrames()
	if done || err != nil {
		return err
	}
	lastTarget, stall := -1, 0
	lastF, lastG := 0.0, 0.0 // factors of the previous attempt at lastTarget
	noAdvance := 0           // consecutive completed frames resolving nothing (watchdog)
	for {
		t := g.nextTarget()
		if t < 0 {
			return nil
		}
		if t != lastTarget {
			lastTarget, stall = t, 0
			lastF, lastG = 0, 0
		}
		if g.frames >= g.cfg.MaxIterations {
			return g.failure(&BudgetError{
				Name: g.res.Name, Budget: g.cfg.MaxIterations, Target: t,
				Kind: "iterations", Used: int64(g.frames), Limit: int64(g.cfg.MaxIterations),
			}, t)
		}
		lower, upper := bracket(frames, t)
		// Consecutive stalls on the same target widen the directed jump so
		// the target must eventually enter the window.
		r := g.cfg.TuningR + float64(stall)*3
		prop, ok := g.policy.Propose(lower, upper, r, lastF, lastG)
		if !ok {
			// Unreachable: the initial frame brackets every target.
			return fmt.Errorf("core: %s: no frame brackets coefficient s^%d", g.res.Name, t)
		}
		if err := g.checkProposal(prop, t); err != nil {
			return g.failure(err, t)
		}
		unknownBefore := g.unknownCount()
		fr, err := g.interpolateRetry(prop.f, prop.g, prop.purpose, t, 0)
		if err != nil {
			var ferr *FrameError
			if errors.As(err, &ferr) && g.cfg.AllowDegraded {
				// This target's frames keep landing on singular points:
				// abandon it, keep resolving the rest of the range.
				g.logFailure(err, t)
				g.abandon(t)
				continue
			}
			return g.failure(err, t)
		}
		lastF, lastG = prop.f, prop.g
		if fr.lo <= fr.hi {
			frames = append(frames, fr)
		}
		if g.res.Coeffs[t].Status == Unknown {
			stall++
			if stall >= g.cfg.StallLimit {
				g.markNegligible(t, fr)
				stall = 0
			}
		} else {
			stall = 0
		}
		// Stall watchdog: independent of the per-target escape above, a
		// run where completed frames stop resolving anything at all is
		// stuck (the per-target escape advances at least every StallLimit
		// frames, so a healthy run never accumulates this many).
		if g.unknownCount() < unknownBefore {
			noAdvance = 0
		} else {
			noAdvance++
			if g.cfg.WatchdogStall > 0 && noAdvance >= g.cfg.WatchdogStall {
				return g.failure(&StallError{Name: g.res.Name, Target: t, Frames: noAdvance}, t)
			}
		}
	}
}

// startFrames produces the frame set the adaptive loop starts from: a
// warm-start replay when the configuration carries a usable schedule
// (warmstart.go), the cold initial frame otherwise. done reports that
// generation finished during startup — an identically-zero polynomial, a
// degraded startup failure, or a replay that resolved everything.
func (g *generator) startFrames() (frames []frame, done bool, err error) {
	if sched := g.warmSchedule(); sched != nil {
		frames, done, err = g.replay(sched)
		if err != nil {
			return nil, done, err
		}
		g.res.WarmStarted = true
		g.res.ReplayedFrames = len(g.res.Iterations)
		return frames, done, nil
	}
	initial, err := g.interpolateRetry(g.cfg.InitFScale, g.cfg.InitGScale, "initial", -1, 0)
	if err != nil {
		return nil, true, g.failure(err, -1)
	}
	if initial.lo > initial.hi {
		// The polynomial evaluated to zero at every point: it is
		// identically zero (e.g. no path from input to output).
		g.markIdenticallyZero()
		return nil, true, nil
	}
	return []frame{initial}, false, nil
}

// failure resolves a generation-ending event per AllowDegraded: taxonomy
// errors are recorded and degrade to a partial Result (nil error) when
// allowed; everything else — context cancellation above all — always
// propagates unchanged.
func (g *generator) failure(err error, target int) error {
	if !taxonomyError(err) {
		return err
	}
	g.logFailure(err, target)
	if g.cfg.AllowDegraded || (g.cfg.DegradeOnBudget && errors.Is(err, ErrIterationBudget)) {
		g.degraded = true
		return nil
	}
	return err
}

// logFailure records a fault quality event and delivers it to the
// OnFailure hook.
func (g *generator) logFailure(err error, target int) {
	ev := QualityEvent{Kind: EventFault, Frame: g.frames, Target: target, Err: err, Detail: err.Error()}
	g.res.AddEvent(ev)
	if g.cfg.OnFailure != nil {
		g.cfg.OnFailure(ev)
	}
}

// checkWorkBudget enforces the execution-side resource budgets before a
// frame dispatches its point solves: the solve budget (Config.MaxSolves)
// over Result.TotalSolves and the soft memory ceiling
// (Config.MemoryBudget) over the cumulative arena estimate. A passing
// frame charges its estimate to Result.EstimatedBytes; a failing one
// charges nothing and performs no solves, so a budget-degraded partial
// Result never exceeds its grant.
func (g *generator) checkWorkBudget(kUse, half int) *BudgetError {
	if g.cfg.MaxSolves > 0 && g.res.TotalSolves+half > g.cfg.MaxSolves {
		return &BudgetError{
			Name: g.res.Name, Budget: g.cfg.MaxIterations, Target: -1,
			Kind: "solves", Used: int64(g.res.TotalSolves + half), Limit: int64(g.cfg.MaxSolves),
		}
	}
	est := g.res.EstimatedBytes + frameArenaBytes(g.ev.M, kUse, half)
	if g.cfg.MemoryBudget > 0 && est > g.cfg.MemoryBudget {
		return &BudgetError{
			Name: g.res.Name, Budget: g.cfg.MaxIterations, Target: -1,
			Kind: "bytes", Used: est, Limit: g.cfg.MemoryBudget,
		}
	}
	g.res.EstimatedBytes = est
	return nil
}

// frameArenaBytes is the coarse per-frame arena estimate: kUse complex
// evaluation points (16 bytes each), half solved extended-range values
// (32 bytes each: mantissa pair plus exponent pair) and one dense
// factorization plan over the evaluator's matrix order M (M² complex
// entries). Coarse, but deterministic and monotone in the work actually
// performed — which is all a shed-or-degrade decision needs.
func frameArenaBytes(m, kUse, half int) int64 {
	return int64(kUse)*16 + int64(half)*32 + int64(m)*int64(m)*16
}

// abandon marks a target as given up under AllowDegraded; it stays
// Unknown and the result is degraded.
func (g *generator) abandon(t int) {
	if g.abandoned == nil {
		g.abandoned = make([]bool, g.n+1)
	}
	g.abandoned[t] = true
	g.degraded = true
}

// unknownCount counts Unknown coefficients (abandoned ones included —
// they stay Unknown by design and must not register as progress).
func (g *generator) unknownCount() int {
	n := 0
	for _, c := range g.res.Coeffs {
		if c.Status == Unknown {
			n++
		}
	}
	return n
}

// nextTarget returns the smallest Unknown non-abandoned coefficient
// index inside the structural window, or -1 when everything there is
// classified or given up.
func (g *generator) nextTarget() int {
	for i := g.wlo; i <= g.whi; i++ {
		if g.res.Coeffs[i].Status == Unknown && (g.abandoned == nil || !g.abandoned[i]) {
			return i
		}
	}
	return -1
}

// inWindow reports whether index i lies inside the structural window.
func (g *generator) inWindow(i int) bool { return i >= g.wlo && i <= g.whi }

// markIdenticallyZero classifies every in-window coefficient as a Valid
// zero — the polynomial evaluated to zero at every point of the
// initial frame. The indices outside the window stay Unknown and become
// structural zeros with the rest (markStructuralZeros).
func (g *generator) markIdenticallyZero() {
	for i := g.wlo; i <= g.whi; i++ {
		g.res.Coeffs[i] = Coefficient{Status: Valid, Iteration: 0}
	}
}

// markStructuralZeros turns every still-Unknown coefficient outside the
// structural window into a structural zero: Negligible with an exact
// zero bound and no evidence iteration (Coefficient.Structural). It runs
// once the generation loop has ended, however it ended — the window is a
// proof, not a measurement.
func (g *generator) markStructuralZeros() {
	for i := range g.res.Coeffs {
		if !g.inWindow(i) && g.res.Coeffs[i].Status == Unknown {
			g.res.Coeffs[i] = Coefficient{Status: Negligible, Iteration: -1}
		}
	}
}

// markNegligible classifies coefficient t with the upper bound implied by
// the frame aimed at it: |p_t| < threshold_t/(f^t·g^(M−t)). The
// classification is also recorded on the evidence iteration (the last one
// appended — the frame fr), which is what marks it contributing for
// schedule extraction.
func (g *generator) markNegligible(t int, fr frame) {
	thr := fr.thresholdAt(g.cfg.SigDigits, t)
	bound := xmath.XFloat{}
	if !thr.Zero() {
		bound = thr.
			Div(xmath.FromFloat(fr.f).PowInt(t)).
			Div(xmath.FromFloat(fr.g).PowInt(g.ev.M - t))
	}
	g.res.Coeffs[t] = Coefficient{
		Status:    Negligible,
		Bound:     bound,
		Iteration: len(g.res.Iterations) - 1,
	}
	if n := len(g.res.Iterations); n > 0 {
		it := &g.res.Iterations[n-1]
		it.Negligible = append(it.Negligible, t)
	}
}

// unitPoints returns (and caches) the K-point unit-circle set.
func (g *generator) unitPoints(k int) []complex128 {
	if pts, ok := g.points[k]; ok {
		return pts
	}
	pts := dft.UnitCirclePoints(k)
	g.points[k] = pts
	return pts
}

// window returns the index range [k0, l0] still containing Unknown
// coefficients (the full range when reduction is disabled or nothing is
// resolved yet).
func (g *generator) window() (int, int) {
	if g.cfg.NoReduce {
		return 0, g.n
	}
	k0, l0 := 0, g.n
	for k0 <= g.n && g.res.Coeffs[k0].Status != Unknown {
		k0++
	}
	if k0 > g.n {
		return 0, g.n // nothing unresolved; caller won't be here in practice
	}
	for l0 >= 0 && g.res.Coeffs[l0].Status != Unknown {
		l0--
	}
	return k0, l0
}

// interpolateRetry runs one interpolation, retrying with perturbed
// geometry when a point solve comes back non-finite — the frame landed
// on a system pole, or the evaluator injected or suffered a fault. Retry
// attempt a bumps the point count to the next unused odd value (which
// rotates every evaluation angle) and odd attempts additionally negate
// the points (a half-step rotation); between attempts a bounded
// exponential backoff (Config.RetryBackoff) applies. Singular attempts
// are logged as they happen; a frame that fails every attempt surfaces
// as a *FrameError. Other errors (cancellation) pass through unchanged.
//
// startAttempt seeds the retry-geometry index: a cold frame passes 0, a
// warm replay passes the attempt its recorded frame succeeded with, so
// the replayed geometry matches the recorded one exactly (and retries,
// if the perturbed point needs them, continue from there).
func (g *generator) interpolateRetry(f, gsc float64, purpose string, target, startAttempt int) (frame, error) {
	var last error
	for attempt := startAttempt; attempt <= startAttempt+g.cfg.FrameRetries; attempt++ {
		if attempt > startAttempt {
			g.res.FrameRetries++
			if err := g.backoff(attempt - startAttempt); err != nil {
				return frame{}, err
			}
		}
		fr, err := g.interpolate(f, gsc, purpose, attempt)
		if err == nil {
			return fr, nil
		}
		var sing *SingularPointError
		if !errors.As(err, &sing) {
			return frame{}, err
		}
		g.logFailure(err, target)
		last = err
	}
	g.res.FailedFrames++
	return frame{}, &FrameError{
		Name: g.res.Name, Purpose: purpose,
		FScale: f, GScale: gsc,
		Attempts: g.cfg.FrameRetries + 1, Last: last,
	}
}

// backoff waits the bounded exponential retry delay (base doubling per
// attempt, capped at one second), respecting cancellation.
func (g *generator) backoff(attempt int) error {
	d := g.cfg.RetryBackoff
	if d <= 0 {
		return nil
	}
	for i := 1; i < attempt && d < time.Second; i++ {
		d *= 2
	}
	if d > time.Second {
		d = time.Second
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-g.ctx.Done():
		return g.ctx.Err()
	case <-timer.C:
		return nil
	}
}

// interpolate runs one interpolation with scale factors (f, gsc),
// detects the valid region, merges coefficients into the result and
// returns the frame. On context cancellation it returns the context's
// error without recording a partial iteration; the Result keeps
// everything resolved so far. A non-finite point value aborts before
// any arithmetic with a *SingularPointError and no recorded iteration.
//
// attempt > 0 selects the retry geometry: the point count grows to
// kUse+2·attempt−1 or kUse+2·attempt (whichever is odd — an odd set
// never contains both +1 and −1, so the two angles a pole most plausibly
// pins are each avoided by half the attempts), and odd attempts negate
// the points. Negated points evaluate Q(u) = P'(−u), whose coefficients
// are (−1)^i·p'_i — still real, so the Hermitian mirroring stays exact —
// and the signs are restored after the inverse transform.
func (g *generator) interpolate(f, gsc float64, purpose string, attempt int) (frame, error) {
	if err := g.ctx.Err(); err != nil {
		return frame{}, err
	}
	g.frames++
	start := time.Now()
	k0, l0 := g.window()
	k := l0 - k0 + 1
	kUse := k + guardPoints
	flip := false
	if attempt > 0 {
		kUse += 2*attempt - 1 + (kUse & 1)
		flip = attempt%2 == 1
	}
	pts := g.unitPoints(kUse)
	if flip {
		if cap(g.neg) < len(pts) {
			g.neg = make([]complex128, len(pts))
		}
		neg := g.neg[:len(pts)]
		for i, u := range pts {
			neg[i] = -u
		}
		pts = neg
	}
	reduce := k0 > 0 || l0 < g.n
	var defl *deflation
	if reduce {
		defl = newDeflation(g.res.Coeffs, f, gsc, g.ev.M, g.n, k0, kUse, g.cfg.SigDigits)
	}
	var slotErr []xmath.XFloat
	var subtracted []bool
	var maxKnown xmath.XFloat
	if defl != nil {
		slotErr, subtracted, maxKnown = defl.slotErr, defl.subtracted, defl.maxKnown
	}
	// The point solves are the hot path. Two savings apply: the
	// polynomial has real coefficients, so P(conj s) = conj P(s) and only
	// the upper half-circle needs solving (the rest is mirrored by
	// conjugation in dft.HermitianInverse); and the points are dispatched
	// as one batch (serial loop at Parallelism 1 or without an EvalBatch,
	// worker pool otherwise — bit-identical either way).
	half := kUse
	if !g.cfg.NoMirror {
		half = dft.HermitianHalf(kUse)
	}
	if berr := g.checkWorkBudget(kUse, half); berr != nil {
		return frame{}, berr
	}
	evalStart := time.Now()
	values, err := g.ev.EvalPointsInto(g.ctx, frameBuf(&g.vals, half), pts[:half], f, gsc, g.cfg.Parallelism)
	if err != nil {
		return frame{}, err
	}
	evalElapsed := time.Since(evalStart)
	// Failed frames still did the solves: count the work before the scan.
	g.res.TotalSolves += half
	g.res.EvalElapsed += evalElapsed
	// Screen for singular/corrupted solves before any arithmetic touches
	// the values: extended-range arithmetic treats non-finite input as an
	// upstream bug and panics, and a NaN mixed into the transform would
	// poison every output slot anyway. The scan order is the dispatch
	// order, so the reported point is identical serially and in parallel.
	for i, v := range values {
		if !v.Finite() {
			return frame{}, &SingularPointError{
				Name: g.res.Name, Point: pts[i], Index: i,
				FScale: f, GScale: gsc, NaN: v.IsNaN(),
			}
		}
	}
	if defl != nil {
		defl.apply(values, pts)
	}
	// Condition-estimate input: the largest magnitude entering the
	// inverse transform (after deflation). The transform mixes every
	// input into every output slot, so each slot's absolute error is
	// bounded by the largest input's round-off — the Vandermonde/
	// divided-difference growth the error bars must account for.
	var maxVal xmath.XFloat
	for _, v := range values {
		if a := v.AbsX(); a.CmpAbs(maxVal) > 0 {
			maxVal = a
		}
	}
	var raw []xmath.XComplex
	if half < kUse {
		raw = dft.HermitianInverseInto(frameBuf(&g.raw, kUse), values, kUse, &g.dfts)
	} else {
		raw = dft.InverseInto(frameBuf(&g.raw, kUse), values, &g.dfts)
	}
	if flip {
		// Undo the half-step rotation: the transform of Q(u) = P'(−u)
		// yields (−1)^i·p'_{k0+i} at relative slot i.
		for i := 1; i < len(raw); i += 2 {
			raw[i] = raw[i].Neg()
		}
	}
	normalized := make(poly.XPoly, g.n+1)
	var measured xmath.XFloat
	for i, c := range raw {
		if i < k {
			normalized[k0+i] = c.Real()
			// The polynomial has real coefficients, so any imaginary
			// output is pure round-off — the residue Table 1a displays.
			if im := c.Imag().Abs(); im.CmpAbs(measured) > 0 {
				measured = im
			}
			continue
		}
		// Guard slot: structurally zero. Known-coefficient deflation
		// residue aliases onto these slots too and is already accounted
		// per-slot (slotErr); only magnitude in excess of what the
		// residue explains is evidence of additional evaluation noise.
		if excess, ok := defl.guardExcess(k0+i, c.AbsX()); ok && excess.CmpAbs(measured) > 0 {
			measured = excess
		}
	}
	drift := math.Abs(math.Log10(f / g.cfg.InitFScale))
	if d := math.Abs(math.Log10(gsc / g.cfg.InitGScale)); d > drift {
		drift = d
	}
	it := Iteration{
		Purpose:     purpose,
		FScale:      f,
		GScale:      gsc,
		K:           k,
		Offset:      k0,
		Normalized:  normalized,
		Lo:          1,
		Hi:          0,
		Subtracted:  subtracted,
		Solves:      half,
		EvalElapsed: evalElapsed,
		Attempt:     attempt,
		DriftLog10:  drift,
	}
	fr := frame{f: f, g: gsc, normalized: normalized, lo: 1, hi: 0, maxIdx: -1, slotErr: slotErr, subtracted: subtracted}
	// Round-off noise floor: relative to the largest magnitude the
	// evaluation actually handled — the window max, or the deflated known
	// part when that dominates (paper §2.2). The region seed is the
	// largest *signal* entry: deflated slots hold residue, not signal.
	var maxNorm xmath.XFloat
	maxIdx := -1
	for i, v := range normalized {
		if subtracted != nil && subtracted[i] {
			continue
		}
		if !v.Zero() && (maxIdx < 0 || v.CmpAbs(maxNorm) > 0) {
			maxNorm, maxIdx = v, i
		}
	}
	errBase := maxNorm.Abs()
	if maxKnown.CmpAbs(errBase) > 0 {
		errBase = maxKnown
	}
	// Condition estimate: decades by which the transform inputs exceeded
	// the error base the classifier's noise model is relative to. When
	// positive, every output slot's absolute error can be this many
	// decades above the modeled floor, and the error bars widen by it.
	if !errBase.Zero() && maxVal.CmpAbs(errBase) > 0 {
		it.CondLog10 = maxVal.Log10() - errBase.Log10()
	}
	fr.base = errBase.Mul(xmath.Pow10(interp.NoiseExp))
	if m3 := measured.MulFloat(3); m3.CmpAbs(fr.base) > 0 {
		fr.base = m3
	}
	winLo, winHi, ok := g.classify.Classify(&fr, maxIdx)
	if ok {
		fr.lo, fr.hi = winLo, winHi
		fr.maxIdx = maxIdx
		it.Lo, it.Hi = winLo, winHi
		it.NewValid, it.Revised = g.accept(&fr)
	}
	it.Elapsed = time.Since(start)
	g.res.Iterations = append(g.res.Iterations, it)
	if g.cfg.Observer != nil {
		g.cfg.Observer(it)
	}
	return fr, nil
}

// accept merges the valid region's denormalized coefficients into the
// result, cross-checking overlaps and keeping the higher-quality value.
// It returns the count of coefficients first resolved here (newValid) and
// the count of already-classified ones whose stored entry changed — a
// quality replacement or a Negligible→Valid upgrade (revised). Either
// kind of change makes the frame contributing for schedule extraction.
func (g *generator) accept(fr *frame) (newValid, revised int) {
	xf, xg := xmath.FromFloat(fr.f), xmath.FromFloat(fr.g)
	iterIdx := len(g.res.Iterations)
	for i := fr.lo; i <= fr.hi; i++ {
		if (fr.subtracted != nil && fr.subtracted[i]) || !g.inWindow(i) {
			continue
		}
		value := fr.normalized[i].
			Div(xf.PowInt(i)).
			Div(xg.PowInt(g.ev.M - i))
		quality := fr.normalized[i].Abs().Log10() - fr.thresholdAt(g.cfg.SigDigits, i).Log10()
		c := &g.res.Coeffs[i]
		switch c.Status {
		case Valid:
			// Boundary coefficients carry exactly σ digits; allow an
			// order of magnitude of headroom before flagging.
			tol := math.Pow(10, float64(3-g.cfg.SigDigits))
			if !c.Value.ApproxEqual(value, tol) {
				g.res.Disagreements++
			}
			if quality > c.Quality {
				c.Value, c.Quality, c.Iteration = value, quality, iterIdx
				revised++
			}
		default:
			if c.Status == Unknown {
				newValid++
			} else {
				revised++
			}
			*c = Coefficient{Status: Valid, Value: value, Quality: quality, Iteration: iterIdx}
		}
	}
	return newValid, revised
}
