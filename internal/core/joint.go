package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/interp"
	"repro/internal/sparse"
	"repro/internal/xmath"
)

// jointKey identifies one joint evaluation: the interpolation point and
// the scale pair it was evaluated under.
type jointKey struct {
	s    complex128
	f, g float64
}

// jointEntry is one memoized joint result. The sync.Once latch makes
// the result be stored exactly once per key no matter how many workers
// race on it, which also keeps the miss counter deterministic: misses =
// distinct keys, independent of scheduling.
type jointEntry struct {
	once     sync.Once
	num, den xmath.XComplex
}

// jointCache memoizes a transfer function's joint evaluations across the
// numerator and denominator passes of GenerateTransferFunction. Both
// passes interpolate at unit-circle points under evolving scale factors;
// wherever the two trajectories touch the same (s, fscale, gscale)
// triple — always on the shared initial scales, and again whenever the
// adaptive walks coincide — the second polynomial's value comes out of
// the one factorization already paid for. Points are evaluated in chunks
// of up to sparse.Lanes, so that the keys a chunk sees first share one
// call of the chunk form.
//
// Its entries and chunk workers come from a run scratch (js), reused
// from earlier caches.
type jointCache struct {
	eval   func(num, den []xmath.XComplex, pts []complex128, fscale, gscale float64)
	ready  func() bool
	mu     sync.Mutex
	js     *jointScratch // entries and workers; guarded by mu
	total  atomic.Int64  // lookups
	misses atomic.Int64  // distinct keys actually computed
}

// jointWorker is one chunk's buffers: the entries of its points, and
// the points it claimed with the joint values computed for them. next
// links it into its scratch's idle list or a batch's taken list.
type jointWorker struct {
	entries  [sparse.Lanes]*jointEntry
	claimed  [sparse.Lanes]int
	pts      [sparse.Lanes]complex128
	num, den [sparse.Lanes]xmath.XComplex
	next     *jointWorker
}

// newJointCache returns a cache over the joint evaluation eval (see
// interp.TransferFunction.EvalBothChunk), primed once ready reports true,
// keeping its entries and workers in js, which must be reset.
func newJointCache(eval func(num, den []xmath.XComplex, pts []complex128, fscale, gscale float64), ready func() bool, js *jointScratch) *jointCache {
	if js.entries == nil {
		js.entries = make(map[jointKey]*jointEntry)
	}
	return &jointCache{eval: eval, ready: ready, js: js}
}

// chunk writes pick(N(s), D(s)) for each point s of pts (at most
// sparse.Lanes of them) to dst. Under the mutex it looks every key up
// and claims the ones it sees first by creating their entries; it
// computes the claimed points in one call of the chunk form and latches
// each result into its entry. An entry another chunk claimed but has
// not latched yet is computed here, alone, by whichever of the two
// reaches its latch first — the values are the same either way.
func (jc *jointCache) chunk(w *jointWorker, dst []xmath.XComplex, pts []complex128, fscale, gscale float64, pick func(num, den xmath.XComplex) xmath.XComplex) {
	jc.total.Add(int64(len(pts)))
	nc := 0
	jc.mu.Lock()
	for i, s := range pts {
		key := jointKey{s: s, f: fscale, g: gscale}
		e := jc.js.entries[key]
		if e == nil {
			e = jc.js.entry()
			jc.js.entries[key] = e
			w.claimed[nc], w.pts[nc] = i, s
			nc++
		}
		w.entries[i] = e
	}
	jc.mu.Unlock()
	if nc > 0 {
		jc.eval(w.num[:nc], w.den[:nc], w.pts[:nc], fscale, gscale)
		for j, i := range w.claimed[:nc] {
			e := w.entries[i]
			e.once.Do(func() {
				jc.misses.Add(1)
				e.num, e.den = w.num[j], w.den[j]
			})
		}
	}
	for i, e := range w.entries[:len(pts)] {
		e.once.Do(func() {
			jc.misses.Add(1)
			w.pts[0] = pts[i]
			jc.eval(w.num[:1], w.den[:1], w.pts[:1], fscale, gscale)
			e.num, e.den = w.num[0], w.den[0]
		})
		dst[i] = pick(e.num, e.den)
	}
}

// counters returns the cumulative (hits, misses) so far. Both are
// deterministic for a given generation run: total lookups are fixed by
// the iteration trajectory and misses count distinct keys.
func (jc *jointCache) counters() (hits, misses int) {
	t, m := jc.total.Load(), jc.misses.Load()
	return int(t - m), int(m)
}

// evaluator wraps one polynomial's evaluator so every point evaluation
// is served from the shared cache; pick selects this polynomial's half
// of the joint result. The batch path runs interp.RunChunks in chunks of
// sparse.Lanes with the transfer function's BothReady as the priming
// gate, so the serial and parallel runs evaluate the priming point on
// the same goroutine and stay bit-identical — the same contract the
// plain evaluators honor.
func (jc *jointCache) evaluator(base interp.Evaluator, pick func(num, den xmath.XComplex) xmath.XComplex) interp.Evaluator {
	ev := base
	ev.Eval = func(s complex128, fscale, gscale float64) xmath.XComplex {
		var v [1]xmath.XComplex
		var taken *jointWorker
		jc.mu.Lock()
		w := jc.js.worker(&taken)
		jc.mu.Unlock()
		jc.chunk(w, v[:], []complex128{s}, fscale, gscale, pick)
		jc.release(taken)
		return v[0]
	}
	ev.EvalBatch = func(ctx context.Context, points []complex128, fscale, gscale float64, workers int) []xmath.XComplex {
		var taken *jointWorker // this batch's workers
		values := interp.RunChunks(ctx, make([]xmath.XComplex, len(points)), points, workers, sparse.Lanes, jc.ready, func() func([]xmath.XComplex, []complex128) {
			jc.mu.Lock()
			w := jc.js.worker(&taken)
			jc.mu.Unlock()
			return func(dst []xmath.XComplex, pts []complex128) {
				jc.chunk(w, dst, pts, fscale, gscale, pick)
			}
		})
		jc.release(taken)
		return values
	}
	return ev
}

// release makes the workers of the list taken idle again.
func (jc *jointCache) release(taken *jointWorker) {
	jc.mu.Lock()
	jc.js.release(taken)
	jc.mu.Unlock()
}
