package sparse

import (
	"math/rand"
	"sync"
	"testing"
)

// randomShared builds a deterministic random diagonally-dominant matrix.
func randomShared(rng *rand.Rand, n int) *Matrix {
	m := New(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, complex(4+rng.Float64(), rng.Float64()))
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j != i {
				m.Add(i, j, complex(rng.Float64()-0.5, rng.Float64()-0.5))
			}
		}
	}
	return m
}

func TestFactorDeterministicBits(t *testing.T) {
	// The same matrix factored repeatedly must yield bit-identical
	// determinants and solutions — the property the parallel batch
	// layer is built on (sorted U-rows, deterministic pivot ties).
	rng := rand.New(rand.NewSource(7))
	m := randomShared(rng, 12)
	b := make([]complex128, 12)
	for i := range b {
		b[i] = complex(rng.Float64(), rng.Float64())
	}
	refDet := m.Det()
	refX, err := m.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		if d := m.Det(); d != refDet {
			t.Fatalf("trial %d: Det differs: %v vs %v", trial, d, refDet)
		}
		x, err := m.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if x[i] != refX[i] {
				t.Fatalf("trial %d: x[%d] differs: %v vs %v", trial, i, x[i], refX[i])
			}
		}
	}
}

func TestFactorSharedMatchesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomShared(rng, 10)
	es := entriesOf(m)
	var sp SharedPlan
	var ws Workspace
	if sp.Primed() {
		t.Fatal("fresh plan reports primed")
	}
	f1, err := factorEntries(&ws, &sp, 10, es)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Primed() {
		t.Fatal("plan not primed by first factorization")
	}
	ref, err := m.Factor(DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Det() != ref.Det() {
		t.Fatalf("priming factorization differs from Factor: %v vs %v", f1.Det(), ref.Det())
	}
	// Replaying the priming matrix reproduces the priming factorization
	// bit for bit: the compiled replay is the same recurrence.
	f2, err := factorEntries(&ws, &sp, 10, es)
	if err != nil {
		t.Fatal(err)
	}
	requireSameLU(t, f2, ref)
	// Replay on the same pattern with different values is deterministic.
	es2 := scaled(rng, es)
	f3, err := factorEntries(&ws, &sp, 10, es2)
	if err != nil {
		t.Fatal(err)
	}
	d3 := f3.Det()
	if d3.Zero() {
		t.Fatal("replayed factorization lost the determinant")
	}
	for trial := 0; trial < 10; trial++ {
		f, err := factorEntries(&ws, &sp, 10, es2)
		if err != nil {
			t.Fatal(err)
		}
		if f.Det() != d3 {
			t.Fatalf("replay not deterministic: %v vs %v", f.Det(), d3)
		}
	}
}

func TestFactorSharedInPlaceErrPlanMiss(t *testing.T) {
	// Prime on a matrix whose planned pivots are its diagonal, then
	// replay a matrix of the same structural pattern whose planned (0,0)
	// pivot is zero: the compiled replay must report ErrPlanMiss so the
	// caller re-assembles for a full factorization.
	pattern := func(d, off complex128) []entry {
		return []entry{{0, 0, d}, {0, 1, off}, {1, 0, off}, {1, 1, d}}
	}
	var sp SharedPlan
	var ws Workspace
	if _, err := factorEntries(&ws, &sp, 2, pattern(1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := factorEntries(&ws, &sp, 2, pattern(0, 1)); err != ErrPlanMiss {
		t.Fatalf("err = %v, want ErrPlanMiss", err)
	}
	// A zero pivot whose whole remaining row is zero passes the relative
	// guard (0 < 0 is false) and must still miss.
	if _, err := factorEntries(&ws, &sp, 2, pattern(0, 0)); err != ErrPlanMiss {
		t.Fatalf("all-zero pivot row: err = %v, want ErrPlanMiss", err)
	}
	// The fallback full factorization (no plan) succeeds.
	f, err := factorEntries(&ws, nil, 2, pattern(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Det().Complex128(); got != -1 {
		t.Fatalf("fallback det = %v, want -1", got)
	}
	// The miss must not have mutated the shared plan: the original
	// values still replay.
	if _, err := factorEntries(&ws, &sp, 2, pattern(1, 0)); err != nil {
		t.Fatalf("plan corrupted by miss: %v", err)
	}
}

func TestSharedPlanConcurrentDeterministic(t *testing.T) {
	// Many goroutines factoring value-variants of one pattern under one
	// shared plan, each with its own workspace, must each get the value a
	// serial run would produce.
	rng := rand.New(rand.NewSource(11))
	base := entriesOf(randomShared(rng, 14))
	variant := func(k int) []entry {
		es := append([]entry(nil), base...)
		es[0].v += complex(float64(k)*0.01, 0)
		return es
	}
	var sp SharedPlan
	var ws Workspace
	// Prime serially (as the batch layer does).
	if _, err := factorEntries(&ws, &sp, 14, variant(0)); err != nil {
		t.Fatal(err)
	}
	const n = 64
	serial := make([]complex128, n)
	for k := 0; k < n; k++ {
		f, err := factorEntries(&ws, &sp, 14, variant(k))
		if err != nil {
			t.Fatal(err)
		}
		serial[k] = f.Det().Complex128()
	}
	parallel := make([]complex128, n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ws Workspace
			for k := w; k < n; k += 8 {
				f, err := factorEntries(&ws, &sp, 14, variant(k))
				if err != nil {
					t.Error(err)
					return
				}
				parallel[k] = f.Det().Complex128()
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < n; k++ {
		if serial[k] != parallel[k] {
			t.Fatalf("point %d: serial %v != parallel %v", k, serial[k], parallel[k])
		}
	}
}

func TestSharedPlanConcurrentPriming(t *testing.T) {
	// Goroutines racing to prime one plan from the same matrix all get
	// the priming factorization, and exactly one compiled plan survives.
	es := entriesOf(randomShared(rand.New(rand.NewSource(5)), 12))
	var sp SharedPlan
	dets := make([]complex128, 8)
	var wg sync.WaitGroup
	for w := range dets {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ws Workspace
			for k := 0; k < 4; k++ {
				f, err := factorEntries(&ws, &sp, 12, es)
				if err != nil {
					t.Error(err)
					return
				}
				d := f.Det().Complex128()
				if k > 0 && d != dets[w] {
					t.Errorf("worker %d: det moved from %v to %v", w, dets[w], d)
				}
				dets[w] = d
			}
		}(w)
	}
	wg.Wait()
	for w := range dets {
		if dets[w] != dets[0] {
			t.Fatalf("worker %d det %v, worker 0 %v", w, dets[w], dets[0])
		}
	}
}
