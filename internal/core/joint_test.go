package core

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dft"
	"repro/internal/interp"
	"repro/internal/nodal"
	"repro/internal/poly"
	"repro/internal/sparse"
	"repro/internal/xmath"
)

// TestNoMirrorMatchesMirrored checks the Hermitian half-circle scheme
// against the full sweep: IEEE arithmetic commutes with conjugation
// bitwise, so mirroring the computed half must reproduce the full
// evaluation exactly, coefficient for coefficient.
func TestNoMirrorMatchesMirrored(t *testing.T) {
	mirrored, err := Generate(steepProfile(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Generate(steepProfile(), Config{NoMirror: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Coeffs) != len(mirrored.Coeffs) {
		t.Fatalf("coefficient counts differ: %d vs %d", len(full.Coeffs), len(mirrored.Coeffs))
	}
	for i := range full.Coeffs {
		if full.Coeffs[i] != mirrored.Coeffs[i] {
			t.Errorf("s^%d: mirrored %+v vs full %+v", i, mirrored.Coeffs[i], full.Coeffs[i])
		}
	}
	if full.TotalSolves <= mirrored.TotalSolves {
		t.Errorf("full sweep solves %d not above mirrored %d", full.TotalSolves, mirrored.TotalSolves)
	}
}

// synthTF builds a transfer function from two explicit polynomials with
// an EvalBothChunk that simply evaluates both at each point —
// bit-identical to the independent evaluators by construction, as the
// contract demands.
func synthTF(np, dp poly.XPoly, m int) *interp.TransferFunction {
	tf := &interp.TransferFunction{
		Name: "synth",
		Num:  interp.FromPoly("numerator", np, m),
		Den:  interp.FromPoly("denominator", dp, m),
	}
	tf.EvalBothChunk = func(num, den []xmath.XComplex, pts []complex128, fscale, gscale float64) {
		for i, s := range pts {
			num[i], den[i] = tf.Num.Eval(s, fscale, gscale), tf.Den.Eval(s, fscale, gscale)
		}
	}
	return tf
}

func TestJointCacheMatchesIndependent(t *testing.T) {
	numLogs := []float64{0, -9, -19, -30, -42, -55}
	denLogs := []float64{-1, -8, -20, -29, -43, -54}
	mk := func() *interp.TransferFunction {
		return synthTF(profilePoly(numLogs, nil), profilePoly(denLogs, nil), len(numLogs)-1)
	}
	dummy := circuit.New("dummy")
	cfg := Config{InitFScale: 1, InitGScale: 1}

	indCfg := cfg
	indCfg.NoJoint = true
	inum, iden, err := GenerateTransferFunction(dummy, mk(), indCfg)
	if err != nil {
		t.Fatal(err)
	}
	if inum.CacheHits != 0 || inum.CacheMisses != 0 || iden.CacheHits != 0 || iden.CacheMisses != 0 {
		t.Errorf("NoJoint run reported cache traffic: num %d/%d den %d/%d",
			inum.CacheHits, inum.CacheMisses, iden.CacheHits, iden.CacheMisses)
	}

	jnum, jden, err := GenerateTransferFunction(dummy, mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// EvalBothChunk is bit-identical to the independent evaluators here, so
	// the generated coefficients must match exactly.
	for i := range jnum.Coeffs {
		if jnum.Coeffs[i] != inum.Coeffs[i] {
			t.Errorf("numerator s^%d: joint %+v vs independent %+v", i, jnum.Coeffs[i], inum.Coeffs[i])
		}
	}
	for i := range jden.Coeffs {
		if jden.Coeffs[i] != iden.Coeffs[i] {
			t.Errorf("denominator s^%d: joint %+v vs independent %+v", i, jden.Coeffs[i], iden.Coeffs[i])
		}
	}
	// Every numerator evaluation is a fresh key; the denominator's
	// initial iteration shares (s, 1, 1) with the numerator's and must
	// hit the cache.
	if jnum.CacheMisses == 0 {
		t.Error("numerator pass recorded no cache misses")
	}
	if jden.CacheHits == 0 {
		t.Error("denominator pass recorded no cache hits")
	}
	if jnum.CacheHits+jnum.CacheMisses != jnum.TotalSolves {
		t.Errorf("numerator cache traffic %d+%d != TotalSolves %d",
			jnum.CacheHits, jnum.CacheMisses, jnum.TotalSolves)
	}
	if jden.CacheHits+jden.CacheMisses != jden.TotalSolves {
		t.Errorf("denominator cache traffic %d+%d != TotalSolves %d",
			jden.CacheHits, jden.CacheMisses, jden.TotalSolves)
	}
}

// TestJointCacheIdenticalPolys is the degenerate best case: when both
// polynomials are the same, the denominator pass repeats the numerator's
// trajectory exactly and every single solve is a hit.
func TestJointCacheIdenticalPolys(t *testing.T) {
	logs := []float64{0, -9, -19, -30}
	tf := synthTF(profilePoly(logs, nil), profilePoly(logs, nil), len(logs)-1)
	_, den, err := GenerateTransferFunction(circuit.New("dummy"), tf, Config{InitFScale: 1, InitGScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if den.CacheMisses != 0 {
		t.Errorf("denominator pass missed %d times, want 0 (identical trajectory)", den.CacheMisses)
	}
	if den.CacheHits != den.TotalSolves {
		t.Errorf("denominator hits %d != TotalSolves %d", den.CacheHits, den.TotalSolves)
	}
}

// TestJointCacheParallelBitIdentical checks the serial-priming contract
// of the cached batch path: results are bit-identical across worker
// counts, and so are the deterministic cache counters.
func TestJointCacheParallelBitIdentical(t *testing.T) {
	numLogs := []float64{0, -9, -19, -30, -42, -55}
	denLogs := []float64{-1, -8, -20, -29, -43, -54}
	mk := func() *interp.TransferFunction {
		return synthTF(profilePoly(numLogs, nil), profilePoly(denLogs, nil), len(numLogs)-1)
	}
	dummy := circuit.New("dummy")
	snum, sden, err := GenerateTransferFunction(dummy, mk(), Config{InitFScale: 1, InitGScale: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 2, 8} {
		pnum, pden, err := GenerateTransferFunction(dummy, mk(), Config{InitFScale: 1, InitGScale: 1, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		for i := range pnum.Coeffs {
			if pnum.Coeffs[i] != snum.Coeffs[i] {
				t.Errorf("parallelism %d: numerator s^%d differs", par, i)
			}
		}
		for i := range pden.Coeffs {
			if pden.Coeffs[i] != sden.Coeffs[i] {
				t.Errorf("parallelism %d: denominator s^%d differs", par, i)
			}
		}
		if pnum.CacheHits != snum.CacheHits || pnum.CacheMisses != snum.CacheMisses ||
			pden.CacheHits != sden.CacheHits || pden.CacheMisses != sden.CacheMisses {
			t.Errorf("parallelism %d: cache counters differ: num %d/%d vs %d/%d, den %d/%d vs %d/%d",
				par, pnum.CacheHits, pnum.CacheMisses, snum.CacheHits, snum.CacheMisses,
				pden.CacheHits, pden.CacheMisses, sden.CacheHits, sden.CacheMisses)
		}
	}
}

// TestJointCacheRacingChunks: workers of concurrent batches racing on
// the same keys (run under -race in CI) each get every point's joint
// value, the chunk form sees at most sparse.Lanes points per call, and
// the misses still count each distinct key once, however the chunks that
// claimed a key and the chunks that reached its latch first interleave.
func TestJointCacheRacingChunks(t *testing.T) {
	np := profilePoly([]float64{0, -3, -7}, nil)
	dp := profilePoly([]float64{-1, -4, -6}, nil)
	num, den := interp.FromPoly("numerator", np, 2), interp.FromPoly("denominator", dp, 2)
	var widest atomic.Int64
	jc := newJointCache(func(n, d []xmath.XComplex, pts []complex128, f, g float64) {
		for {
			w := widest.Load()
			if int64(len(pts)) <= w || widest.CompareAndSwap(w, int64(len(pts))) {
				break
			}
		}
		for i, s := range pts {
			n[i], d[i] = num.Eval(s, f, g), den.Eval(s, f, g)
		}
	}, nil, new(jointScratch))
	evs := []interp.Evaluator{
		jc.evaluator(num, func(n, _ xmath.XComplex) xmath.XComplex { return n }),
		jc.evaluator(den, func(_, d xmath.XComplex) xmath.XComplex { return d }),
	}
	pts := dft.UnitCirclePoints(37)
	const batches = 8
	var wg sync.WaitGroup
	for b := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev, plain := evs[b%2], []interp.Evaluator{num, den}[b%2]
			sub := pts[b%3:] // overlapping, differently cut point sets
			got := ev.EvalBatch(context.Background(), sub, 2, 0.5, 3)
			for i, s := range sub {
				if want := plain.Eval(s, 2, 0.5); got[i] != want {
					t.Errorf("batch %d point %d: %v, want %v", b, i, got[i], want)
				}
			}
		}()
	}
	wg.Wait()
	lookups := 0
	for b := range batches {
		lookups += len(pts) - b%3
	}
	if hits, misses := jc.counters(); misses != len(pts) || hits != lookups-len(pts) {
		t.Errorf("counters: %d hits, %d misses; want %d, %d", hits, misses, lookups-len(pts), len(pts))
	}
	if w := widest.Load(); w > sparse.Lanes {
		t.Errorf("chunk form called with %d points, more than sparse.Lanes", w)
	}
}

// TestJointSerialEvalAllocatesNothing: the single-point Eval that the
// serial frame loop calls for every point draws its chunk buffers from a
// pool, so a lookup that hits the cache allocates nothing, and a miss
// allocates only its entry (plus the map's occasional growth).
func TestJointSerialEvalAllocatesNothing(t *testing.T) {
	jc := newJointCache(func(n, d []xmath.XComplex, pts []complex128, f, g float64) {
		for i, s := range pts {
			n[i], d[i] = xmath.FromComplex(s), xmath.FromComplex(complex(f, g))
		}
	}, nil, new(jointScratch))
	ev := jc.evaluator(interp.Evaluator{Name: "numerator"}, func(n, _ xmath.XComplex) xmath.XComplex { return n })
	s := complex(0.6, 0.8)
	ev.Eval(s, 1, 1)
	if allocs := testing.AllocsPerRun(50, func() { ev.Eval(s, 1, 1) }); allocs != 0 {
		t.Errorf("cache hit: %v allocs per Eval, want 0", allocs)
	}
	g := 1.0
	if allocs := testing.AllocsPerRun(50, func() { g++; ev.Eval(s, 1, g) }); allocs > 1 {
		t.Errorf("cache miss: %v allocs per Eval, want at most 1 (the entry)", allocs)
	}
}

// TestInitScaleFallbackWarnings covers the small fix: circuits where the
// mean-capacitance or mean-conductance heuristic is undefined fall back
// to scale 1.0 and say so in a warning quality event instead of silently
// defaulting to 1.
func TestInitScaleFallbackWarnings(t *testing.T) {
	hasDiag := func(diags []string, substr string) bool {
		for _, d := range diags {
			if strings.Contains(d, substr) {
				return true
			}
		}
		return false
	}

	// R-only divider: H = 1/2, no capacitors.
	rc := circuit.New("rdiv")
	rc.AddG("g1", "in", "out", 1e-3).AddG("g2", "out", "0", 1e-3)
	sys, err := nodal.Build(rc)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := sys.VoltageGain(rc, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	num, den, err := GenerateTransferFunction(rc, tf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{num, den} {
		if !hasDiag(r.Warnings(), "InitFScale=1") {
			t.Errorf("%s: no InitFScale fallback warning in %q", r.Name, r.Warnings())
		}
		if hasDiag(r.Warnings(), "InitGScale=1") {
			t.Errorf("%s: unexpected InitGScale warning in %q", r.Name, r.Warnings())
		}
	}
	if got := den.Poly(); len(got) == 0 || got[0].Zero() {
		t.Error("R-only denominator came out zero")
	}

	// C-only divider: H = 1/2 again, no conductances.
	cc := circuit.New("cdiv")
	cc.AddC("c1", "in", "out", 1e-12).AddC("c2", "out", "0", 1e-12)
	csys, err := nodal.Build(cc)
	if err != nil {
		t.Fatal(err)
	}
	ctf, err := csys.VoltageGain(cc, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	cnum, _, err := GenerateTransferFunction(cc, ctf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasDiag(cnum.Warnings(), "InitGScale=1") {
		t.Errorf("C-only: no InitGScale fallback warning in %q", cnum.Warnings())
	}

	// Explicit scales suppress both warnings.
	enum, _, err := GenerateTransferFunction(rc, tf, Config{InitFScale: 1, InitGScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(enum.Warnings()) != 0 {
		t.Errorf("explicit scales: unexpected diagnostics %q", enum.Warnings())
	}
}
