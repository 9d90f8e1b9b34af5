package sparse

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dense"
)

func toDense(m *Matrix) *dense.Matrix {
	d := dense.New(m.N())
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if v := m.At(i, j); v != 0 {
				d.Set(i, j, v)
			}
		}
	}
	return d
}

func randomSparse(rng *rand.Rand, n int, density float64) *Matrix {
	m := New(n)
	for i := 0; i < n; i++ {
		// Guarantee structural non-singularity odds: always set diagonal.
		m.Set(i, i, complex(1+rng.NormFloat64(), rng.NormFloat64()))
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				m.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
		}
	}
	return m
}

func TestAddAccumulatesAndCancels(t *testing.T) {
	m := New(2)
	m.Add(0, 0, 3)
	m.Add(0, 0, 2)
	if m.At(0, 0) != 5 {
		t.Errorf("At = %v", m.At(0, 0))
	}
	m.Add(0, 0, -5)
	if m.NNZ() != 0 {
		t.Errorf("NNZ after cancellation = %d", m.NNZ())
	}
	m.Add(1, 1, 0)
	if m.NNZ() != 0 {
		t.Errorf("adding zero created an entry")
	}
}

func TestDetMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 12; n++ {
		for trial := 0; trial < 4; trial++ {
			m := randomSparse(rng, n, 0.3)
			want := toDense(m).Det().Complex128()
			got := m.Det().Complex128()
			if cmplx.Abs(got-want) > 1e-9*(1+cmplx.Abs(want)) {
				t.Errorf("n=%d trial %d: det = %v, dense = %v", n, trial, got, want)
			}
		}
	}
}

func TestDetDiagonal(t *testing.T) {
	m := New(3)
	m.Set(0, 0, 2)
	m.Set(1, 1, 3i)
	m.Set(2, 2, -1)
	if got, want := m.Det().Complex128(), complex128(-6i); cmplx.Abs(got-want) > 1e-13 {
		t.Errorf("det = %v, want %v", got, want)
	}
}

func TestDetPermutation(t *testing.T) {
	// Full anti-diagonal of a 4×4: permutation (0 3)(1 2), even → det = +1.
	m := New(4)
	for i := 0; i < 4; i++ {
		m.Set(i, 3-i, 1)
	}
	if got := m.Det().Complex128(); cmplx.Abs(got-1) > 1e-13 {
		t.Errorf("det = %v, want 1", got)
	}
	// 3×3 anti-diagonal: single transposition, det = -1.
	m3 := New(3)
	for i := 0; i < 3; i++ {
		m3.Set(i, 2-i, 1)
	}
	if got := m3.Det().Complex128(); cmplx.Abs(got-(-1)) > 1e-13 {
		t.Errorf("det = %v, want -1", got)
	}
}

func TestDetSingularIsZero(t *testing.T) {
	m := New(3)
	m.Set(0, 0, 1)
	m.Set(1, 1, 1) // column/row 2 empty: structurally singular
	if got := m.Det(); !got.Zero() {
		t.Errorf("det = %v, want 0", got)
	}
	if _, err := m.Factor(DefaultThreshold); err != ErrSingular {
		t.Errorf("Factor error = %v, want ErrSingular", err)
	}
}

func TestSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(10)
		m := randomSparse(rng, n, 0.25)
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want, errD := toDense(m).Solve(b)
		got, errS := m.Solve(b)
		if (errD == nil) != (errS == nil) {
			t.Fatalf("error mismatch: dense %v, sparse %v", errD, errS)
		}
		if errD != nil {
			continue
		}
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*(1+cmplx.Abs(want[i])) {
				t.Errorf("n=%d: x[%d] = %v, dense %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestSolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := randomSparse(rng, 20, 0.15)
	b := make([]complex128, 20)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	x, err := m.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var sum complex128
		for j := 0; j < 20; j++ {
			sum += m.At(i, j) * x[j]
		}
		if cmplx.Abs(sum-b[i]) > 1e-9 {
			t.Errorf("residual[%d] = %v", i, sum-b[i])
		}
	}
}

func TestSolveBadRHS(t *testing.T) {
	m := New(2)
	m.Set(0, 0, 1)
	m.Set(1, 1, 1)
	if _, err := m.Solve([]complex128{1}); err == nil {
		t.Error("expected length-mismatch error")
	}
}

func TestMinor(t *testing.T) {
	m := New(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, complex(float64(3*i+j+1), 0))
		}
	}
	mm := m.Minor([]int{0}, []int{2})
	if mm.N() != 2 {
		t.Fatalf("dim = %d", mm.N())
	}
	if mm.At(0, 0) != 4 || mm.At(0, 1) != 5 || mm.At(1, 0) != 7 || mm.At(1, 1) != 8 {
		t.Errorf("minor wrong: %v", mm)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := New(2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("clone aliases original")
	}
}

func TestDetDoesNotModifyReceiver(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := randomSparse(rng, 6, 0.4)
	before := m.Clone()
	m.Det()
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if m.At(i, j) != before.At(i, j) {
				t.Fatalf("Det modified (%d,%d)", i, j)
			}
		}
	}
}

func TestParity(t *testing.T) {
	cases := []struct {
		perm []int
		want int
	}{
		{[]int{0, 1, 2}, 1},
		{[]int{1, 0, 2}, -1},
		{[]int{2, 0, 1}, 1},    // 3-cycle: even
		{[]int{1, 2, 0}, 1},    // 3-cycle: even
		{[]int{3, 2, 1, 0}, 1}, // (0 3)(1 2): even
		{[]int{0, 2, 1}, -1},
	}
	for _, c := range cases {
		if got := parity(c.perm, make([]bool, len(c.perm))); got != c.want {
			t.Errorf("parity(%v) = %d, want %d", c.perm, got, c.want)
		}
	}
}

func TestFactorPlannedMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m := randomSparse(rng, 12, 0.25)
	es := entriesOf(m)
	var sp SharedPlan
	var ws Workspace
	// The first factorization is a full one that primes the plan.
	f1, err := factorEntries(&ws, &sp, 12, es)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Det().Complex128()
	if got := f1.Det().Complex128(); cmplx.Abs(got-want) > 1e-9*(1+cmplx.Abs(want)) {
		t.Errorf("first planned det %v, want %v", got, want)
	}
	// Same pattern, new values: the compiled replay must agree with the
	// full path, and SolveInto must work.
	for trial := 0; trial < 5; trial++ {
		es2 := scaled(rng, es)
		m2 := New(12)
		for _, e := range es2 {
			m2.Add(e.i, e.j, e.v)
		}
		f2, err := factorEntries(&ws, &sp, 12, es2)
		if err != nil {
			t.Fatal(err)
		}
		want := m2.Det().Complex128()
		if got := f2.Det().Complex128(); cmplx.Abs(got-want) > 1e-8*(1+cmplx.Abs(want)) {
			t.Errorf("trial %d: planned det %v, want %v", trial, got, want)
		}
		b := make([]complex128, 12)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		x := make([]complex128, 12)
		if err := f2.SolveInto(x, b, &ws); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			var sum complex128
			for j := 0; j < 12; j++ {
				sum += m2.At(i, j) * x[j]
			}
			if cmplx.Abs(sum-b[i]) > 1e-8 {
				t.Errorf("trial %d: residual[%d] = %v", trial, i, sum-b[i])
			}
		}
	}
}

func TestFactorPlannedFallsBackOnBadPivot(t *testing.T) {
	// Plan built on a benign matrix; then the planned first pivot's value
	// is zeroed out — the replay must miss, and the full factorization it
	// falls back to must still produce the right result.
	m := New(3)
	m.Set(0, 0, 4)
	m.Set(1, 1, 5)
	m.Set(2, 2, 6)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	es := entriesOf(m)
	var sp SharedPlan
	var ws Workspace
	if _, err := factorEntries(&ws, &sp, 3, es); err != nil {
		t.Fatal(err)
	}
	c := sp.c.Load()
	// Make whichever entry the plan pivots on first vanish.
	m2 := m.Clone()
	m2.Set(c.pivRow[0], c.pivCol[0], 0)
	es2 := append([]entry(nil), es...)
	for k := range es2 {
		if es2[k].i == c.pivRow[0] && es2[k].j == c.pivCol[0] {
			es2[k].v = 0
		}
	}
	if _, err := factorEntries(&ws, &sp, 3, es2); err != ErrPlanMiss {
		t.Fatalf("replay with a zero planned pivot: err = %v, want ErrPlanMiss", err)
	}
	want := m2.Det().Complex128()
	f, err := factorEntries(&ws, nil, 3, es2)
	if err != nil {
		// Singular after the edit is acceptable only if Det agrees.
		if cmplx.Abs(want) > 1e-12 {
			t.Fatalf("fallback failed: %v (det %v)", err, want)
		}
		return
	}
	if got := f.Det().Complex128(); cmplx.Abs(got-want) > 1e-9*(1+cmplx.Abs(want)) {
		t.Errorf("fallback det %v, want %v", got, want)
	}
	if sp.c.Load() != c {
		t.Error("the miss replaced the shared plan")
	}
}

func TestQuickDetRowScale(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(kRaw int8) bool {
		k := complex(float64(kRaw%16), float64((kRaw/16)%8))
		if k == 0 {
			return true
		}
		m := randomSparse(rng, 5, 0.3)
		d1 := m.Det().Complex128()
		s := m.Clone()
		for j := 0; j < 5; j++ {
			if v := m.At(1, j); v != 0 {
				s.Set(1, j, k*v)
			}
		}
		d2 := s.Det().Complex128()
		return cmplx.Abs(d2-k*d1) <= 1e-9*(1+cmplx.Abs(k*d1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickSparseDenseAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f := func(nRaw uint8, density uint8) bool {
		n := 2 + int(nRaw%8)
		d := 0.15 + float64(density%50)/100
		m := randomSparse(rng, n, d)
		want := toDense(m).Det().Complex128()
		got := m.Det().Complex128()
		return cmplx.Abs(got-want) <= 1e-8*(1+cmplx.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
