package interp

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dft"
	"repro/internal/poly"
	"repro/internal/xmath"
)

func TestWorkers(t *testing.T) {
	if w := Workers(1); w != 1 {
		t.Fatalf("Workers(1) = %d", w)
	}
	if w := Workers(5); w != 5 {
		t.Fatalf("Workers(5) = %d", w)
	}
	if w := Workers(0); w < 1 {
		t.Fatalf("Workers(0) = %d", w)
	}
	if w := Workers(-3); w < 1 {
		t.Fatalf("Workers(-3) = %d", w)
	}
}

// onePoint adapts a single-point evaluator to RunChunks with a chunk
// of 1.
func onePoint(eval func(complex128) xmath.XComplex) func([]xmath.XComplex, []complex128) {
	return func(dst []xmath.XComplex, pts []complex128) { dst[0] = eval(pts[0]) }
}

func TestRunChunksSerialUntilReady(t *testing.T) {
	// The first three points fail to establish the shared state;
	// RunChunks must evaluate them on the priming worker, strictly in
	// order, before any fan-out.
	pts := dft.UnitCirclePoints(16)
	var mu sync.Mutex
	var order []int
	var readyAfter atomic.Int32
	seen := 0
	values := RunChunks(context.Background(), make([]xmath.XComplex, len(pts)), pts, 4, 1,
		func() bool { return readyAfter.Load() >= 3 },
		func() func([]xmath.XComplex, []complex128) {
			return onePoint(func(s complex128) xmath.XComplex {
				mu.Lock()
				order = append(order, seen)
				seen++
				mu.Unlock()
				readyAfter.Add(1)
				return xmath.FromComplex(s)
			})
		})
	if len(values) != 16 {
		t.Fatalf("got %d values", len(values))
	}
	for i, v := range values {
		if v != xmath.FromComplex(pts[i]) {
			t.Fatalf("value %d wrong: %v", i, v)
		}
	}
	for i := 0; i < 3; i++ {
		if order[i] != i {
			t.Fatalf("priming phase out of order: %v", order[:3])
		}
	}
}

func TestRunChunksNilReady(t *testing.T) {
	pts := dft.UnitCirclePoints(9)
	values := RunChunks(context.Background(), make([]xmath.XComplex, len(pts)), pts, 3, 1, nil, func() func([]xmath.XComplex, []complex128) {
		return onePoint(func(s complex128) xmath.XComplex { return xmath.FromComplex(s * 2) })
	})
	for i, v := range values {
		if v != xmath.FromComplex(pts[i]*2) {
			t.Fatalf("value %d wrong", i)
		}
	}
}

// TestRunChunksCuts: after two priming points evaluated one at a time,
// the rest arrive in chunks of consecutive points, none longer than the
// chunk size, and every point is evaluated exactly once, at every worker
// count and every tail length.
func TestRunChunksCuts(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 6, 7, 25} {
		for _, workers := range []int{1, 2, 3} {
			pts := dft.UnitCirclePoints(n)
			var mu sync.Mutex
			var sizes []int
			hits := make([]int, n)
			var calls atomic.Int32
			values := RunChunks(context.Background(), make([]xmath.XComplex, len(pts)), pts, workers, 4,
				func() bool { return calls.Load() >= 2 },
				func() func([]xmath.XComplex, []complex128) {
					return func(dst []xmath.XComplex, chunk []complex128) {
						calls.Add(1)
						mu.Lock()
						sizes = append(sizes, len(chunk))
						for i, s := range chunk {
							dst[i] = xmath.FromComplex(s)
							hits[slices.Index(pts, s)]++
						}
						mu.Unlock()
					}
				})
			for i, v := range values {
				if v != xmath.FromComplex(pts[i]) || hits[i] != 1 {
					t.Fatalf("n=%d workers=%d: point %d evaluated %d times, value %v", n, workers, i, hits[i], v)
				}
			}
			for k, size := range sizes {
				if (k < 2 && size != 1) || size > 4 {
					t.Fatalf("n=%d workers=%d: chunk sizes %v", n, workers, sizes)
				}
			}
		}
	}
}

func testPoly() poly.XPoly {
	p := make(poly.XPoly, 9)
	for i := range p {
		p[i] = xmath.FromFloat(float64(i*i+1) * 1e-6)
	}
	return p
}

// evalPoints evaluates ev at every point of pts through EvalPointsInto.
func evalPoints(t testing.TB, ev Evaluator, pts []complex128, f, g float64, parallelism int) []xmath.XComplex {
	t.Helper()
	values, err := ev.EvalPointsInto(context.Background(), make([]xmath.XComplex, len(pts)), pts, f, g, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return values
}

func TestEvalPointsBitIdenticalAcrossParallelism(t *testing.T) {
	ev := FromPoly("p", testPoly(), 8)
	pts := dft.UnitCirclePoints(32)
	serial := evalPoints(t, ev, pts, 2.5, 0.5, 1)
	for _, par := range []int{0, 2, 4, 16} {
		got := evalPoints(t, ev, pts, 2.5, 0.5, par)
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("parallelism %d: point %d differs: %v vs %v", par, i, got[i], serial[i])
			}
		}
	}
}

func TestEvalPointsNoBatchFallsBack(t *testing.T) {
	calls := 0
	ev := Evaluator{
		Name: "plain", M: 1, OrderBound: 1,
		Eval: func(s complex128, f, g float64) xmath.XComplex {
			calls++
			return xmath.FromComplex(s)
		},
	}
	pts := dft.UnitCirclePoints(8)
	evalPoints(t, ev, pts, 1, 1, 0) // no EvalBatch: serial fallback, no data race on calls
	if calls != 8 {
		t.Fatalf("Eval called %d times, want 8", calls)
	}
}

func TestRunWithParallelismMatchesRun(t *testing.T) {
	ev := FromPoly("p", testPoly(), 8)
	ref := Run(ev, 3, 0.25, 10)
	for _, par := range []int{0, 1, 4} {
		r, err := RunCtx(context.Background(), ev, 3, 0.25, 10, par)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Raw {
			if r.Raw[i] != ref.Raw[i] {
				t.Fatalf("parallelism %d: raw[%d] differs", par, i)
			}
			if r.Normalized[i] != ref.Normalized[i] {
				t.Fatalf("parallelism %d: normalized[%d] differs", par, i)
			}
			if r.Denormalized[i] != ref.Denormalized[i] {
				t.Fatalf("parallelism %d: denormalized[%d] differs", par, i)
			}
		}
	}
}

// goroutineID returns the calling goroutine's id, parsed from its stack
// header ("goroutine 17 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// TestRunChunksContract pins how RunChunks spends goroutines: the
// calling goroutine evaluates chunks itself, at most workers−1
// goroutines are started (one per newWorker call beyond the caller's),
// none outlives the call — also when ctx is canceled mid-batch — and
// the output is bit-identical to the serial evaluation for every chunk
// size and worker count.
func TestRunChunksContract(t *testing.T) {
	pts := dft.UnitCirclePoints(41)
	ev := FromPoly("p", testPoly(), 8)
	norm := testPoly().Normalize(1.5, 0.5, 8)
	want := make([]xmath.XComplex, len(pts))
	for i, s := range pts {
		want[i] = ev.Eval(s, 1.5, 0.5)
	}
	caller := goroutineID()
	for _, chunk := range []int{1, 4, 7} {
		for _, workers := range []int{1, 2, 4} {
			var mu sync.Mutex
			evaluators := map[string]bool{}
			var factories, inFlight atomic.Int32
			// Other workers hold their first chunk until the caller has
			// evaluated one, so the caller's share cannot be crowded out.
			callerRan := make(chan struct{})
			var once sync.Once
			got := RunChunks(context.Background(), make([]xmath.XComplex, len(pts)), pts, workers, chunk, nil, func() func([]xmath.XComplex, []complex128) {
				factories.Add(1)
				first := true
				return func(dst []xmath.XComplex, p []complex128) {
					inFlight.Add(1)
					defer inFlight.Add(-1)
					id := goroutineID()
					mu.Lock()
					evaluators[id] = true
					mu.Unlock()
					if id == caller {
						once.Do(func() { close(callerRan) })
					} else if first {
						select { // a caller that never evaluates fails below
						case <-callerRan:
						case <-time.After(5 * time.Second):
						}
					}
					first = false
					for i, s := range p {
						dst[i] = norm.Eval(xmath.FromComplex(s))
					}
				}
			})
			label := fmt.Sprintf("chunk %d, workers %d", chunk, workers)
			if !slices.Equal(got, want) {
				t.Errorf("%s: values differ from the serial evaluation", label)
			}
			if !evaluators[caller] {
				t.Errorf("%s: the calling goroutine evaluated no chunk", label)
			}
			// The caller makes one worker and each started goroutine one.
			if made, n := int(factories.Load()), len(evaluators); made > workers || n > made {
				t.Errorf("%s: %d workers made, %d goroutines evaluated; want at most %d workers", label, made, n, workers)
			}
			if n := inFlight.Load(); n != 0 {
				t.Errorf("%s: %d evaluations still running after return", label, n)
			}
		}
	}

	// Canceled mid-batch: chunks stop being claimed, RunChunks returns
	// only after every started evaluation has finished, and nothing
	// runs after it.
	for _, workers := range []int{2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls, inFlight atomic.Int32
		dst := RunChunks(ctx, make([]xmath.XComplex, len(pts)), pts, workers, 1, nil, func() func([]xmath.XComplex, []complex128) {
			return func(dst []xmath.XComplex, p []complex128) {
				inFlight.Add(1)
				defer inFlight.Add(-1)
				if calls.Add(1) == 5 {
					cancel()
				}
				dst[0] = xmath.FromComplex(p[0])
			}
		})
		done := calls.Load()
		if n := inFlight.Load(); n != 0 {
			t.Errorf("workers %d: %d evaluations running after a canceled return", workers, n)
		}
		if done >= int32(len(pts)) {
			t.Errorf("workers %d: all %d points evaluated despite cancellation", workers, done)
		}
		evaluated := 0
		for _, v := range dst {
			if v != (xmath.XComplex{}) {
				evaluated++
			}
		}
		if evaluated != int(done) {
			t.Errorf("workers %d: %d slots filled, %d evaluations", workers, evaluated, done)
		}
		if n := calls.Load(); n != done {
			t.Errorf("workers %d: %d evaluations after RunChunks returned", workers, n-done)
		}
		cancel()
	}
}
