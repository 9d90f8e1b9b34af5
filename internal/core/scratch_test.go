package core

import (
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/poly"
	"repro/internal/xmath"
)

// drainRunScratches empties the run-scratch stack and returns what it
// held.
func drainRunScratches() []*runScratch {
	runScratches.Lock()
	defer runScratches.Unlock()
	free := slices.Clone(runScratches.free)
	clear(runScratches.free)
	runScratches.free, runScratches.bytes = runScratches.free[:0], 0
	return free
}

// resultSnapshot is a deep copy of what a Result keeps of its frames.
type resultSnapshot struct {
	coeffs     []Coefficient
	normalized []poly.XPoly
	subtracted [][]bool
}

func snapshot(r *Result) resultSnapshot {
	s := resultSnapshot{coeffs: slices.Clone(r.Coeffs)}
	for _, it := range r.Iterations {
		s.normalized = append(s.normalized, slices.Clone(it.Normalized))
		s.subtracted = append(s.subtracted, slices.Clone(it.Subtracted))
	}
	return s
}

func (s resultSnapshot) equal(r *Result) bool {
	if !CoefficientsEqual(s.coeffs, r.Coeffs) || len(s.normalized) != len(r.Iterations) {
		return false
	}
	for i, it := range r.Iterations {
		if !slices.Equal(s.normalized[i], it.Normalized) || !slices.Equal(s.subtracted[i], it.Subtracted) {
			return false
		}
	}
	return true
}

// TestRunScratchSharesNothingWithResults: once a generation has
// returned, overwriting every buffer of the run scratches it handed back
// leaves its Results as they were, and a later generation on reused
// scratch gives the bits one on fresh scratch gives.
func TestRunScratchSharesNothingWithResults(t *testing.T) {
	numLogs := []float64{0, -9, -19, -30, -42, -55, -66}
	denLogs := []float64{-1, -8, -20, -29, -43, -54, -67}
	dummy := circuit.New("dummy")
	for _, par := range []int{1, 2} {
		cfg := Config{InitFScale: 1, InitGScale: 1, Parallelism: par}
		generate := func() (num, den *Result) {
			tf := synthTF(profilePoly(numLogs, nil), profilePoly(denLogs, nil), len(numLogs)-1)
			num, den, err := GenerateTransferFunction(dummy, tf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return num, den
		}
		drainRunScratches()
		num, den := generate() // on fresh scratch
		if len(num.Iterations) < 2 || num.CacheMisses == 0 {
			t.Fatalf("parallelism %d: %d numerator frames, %d joint misses; the fixture must take several frames through the joint cache", par, len(num.Iterations), num.CacheMisses)
		}
		snapNum, snapDen := snapshot(num), snapshot(den)
		used := drainRunScratches()
		if len(used) == 0 {
			t.Fatalf("parallelism %d: no run scratch was handed back", par)
		}
		for _, sc := range used {
			for _, buf := range [][]xmath.XComplex{sc.vals[:cap(sc.vals)], sc.raw[:cap(sc.raw)]} {
				for i := range buf {
					buf[i] = xmath.CNaN()
				}
			}
			for _, buf := range [][]xmath.XFloat{sc.defl.scaled[:cap(sc.defl.scaled)], sc.defl.slotErr[:cap(sc.defl.slotErr)]} {
				for i := range buf {
					buf[i] = xmath.NaN()
				}
			}
			for _, b := range sc.joint.blocks {
				for i := range b {
					b[i].num, b[i].den = xmath.CNaN(), xmath.CNaN()
				}
			}
		}
		if !snapNum.equal(num) || !snapDen.equal(den) {
			t.Errorf("parallelism %d: overwriting the returned scratch changed the results", par)
		}
		// The overwritten scratches are dropped; the stack is empty.
		fresh, _ := generate()
		reused, _ := generate()
		if !snapNum.equal(fresh) || !snapNum.equal(reused) {
			t.Errorf("parallelism %d: generations on fresh and reused scratch differ", par)
		}
	}
}

// TestRunScratchStackBounds: the stack keeps at most maxRunScratches
// scratches and maxRunScratchBytes of buffers, dropping what does not
// fit.
func TestRunScratchStackBounds(t *testing.T) {
	saved := drainRunScratches()
	defer func() {
		drainRunScratches()
		for _, sc := range saved {
			putRunScratch(sc)
		}
	}()
	for range maxRunScratches + 5 {
		putRunScratch(&runScratch{points: make(map[int][]complex128)})
	}
	if n := len(runScratches.free); n != maxRunScratches {
		t.Errorf("stack holds %d scratches, want %d", n, maxRunScratches)
	}
	drainRunScratches()
	huge := &runScratch{points: make(map[int][]complex128), vals: make([]xmath.XComplex, maxRunScratchBytes/16)}
	putRunScratch(huge)
	if n := len(runScratches.free); n != 0 || runScratches.bytes != 0 {
		t.Errorf("a scratch over the byte bound was kept: %d scratches, %d bytes", n, runScratches.bytes)
	}
	sc := getRunScratch()
	sc.vals = make([]xmath.XComplex, 100)
	putRunScratch(sc)
	if got := getRunScratch(); got != sc || runScratches.bytes != 0 {
		t.Errorf("the stack did not hand back the scratch last put, or miscounted its bytes (%d left)", runScratches.bytes)
	}
}
