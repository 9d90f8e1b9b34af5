package nodal

import (
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/dense"
	"repro/internal/dft"
	"repro/internal/sparse"
	"repro/internal/xmath"
)

// matrixAt assembles Y(s) with every conductance multiplied by gscale
// and every capacitance by fscale,
//
//	Y_ij = gscale·G_ij + s·fscale·C_ij,
//
// as a map-based matrix: the reference construction the projected
// typed-stamp assemblies are checked against.
func (sys *System) matrixAt(s complex128, fscale, gscale float64) *sparse.Matrix {
	m := sparse.New(sys.N())
	for k, ij := range sys.top.gPos {
		m.Add(int(ij[0]), int(ij[1]), complex(sys.g[k]*gscale, 0))
	}
	sc := s * complex(fscale, 0)
	for k, ij := range sys.top.cPos {
		m.Add(int(ij[0]), int(ij[1]), sc*complex(sys.c[k], 0))
	}
	return m
}

// factorAt factors b's matrix at one point through the recording
// replay (sparse.Workspace.FactorAssembly) under the pattern's plan: the
// bit oracle of the lane replays every evaluator runs.
func (b *bound) factorAt(sc *sparse.Scratch, s complex128, fscale, gscale float64) (*sparse.LU, error) {
	return sc.WS.FactorAssembly(&b.plan, b.assembly(), s, fscale, gscale)
}

// timeAlone reports allocations and times op b.N times on a single P.
// Allocation counts are process-wide, so a gated count must not see
// other goroutines allocate while the timer runs, as the runtime's own
// do once per process (the scavenger's first sleep grows its P's timer
// heap by 16 B). With one P nothing runs beside op, which neither
// blocks nor yields.
func timeAlone(b *testing.B, op func()) {
	b.Helper()
	b.ReportAllocs()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
}

// benchDet returns the full determinant det Y of c's nodal system, with
// its typed stamps gathered as every nodal evaluation gathers them, and
// the circuit's seed scales.
func benchDet(b *testing.B, c *circuit.Circuit) (pat *bound, fscale, gscale float64) {
	b.Helper()
	sys, err := Build(c)
	if err != nil {
		b.Fatal(err)
	}
	fscale, gscale, _, _ = c.SeedScales()
	return sys.detPattern(), fscale, gscale
}

// benchDetPlanned times the recording replay — the bit oracle of the
// lane replays, which no evaluator runs: the typed stamps of det Y at
// s = j assembled into the compiled plan's slots of a reused workspace,
// the replay that keeps the U rows and multipliers, and LU.Det. The
// first factorization primes the plan and the second grows the
// workspace, so an op allocates nothing.
func benchDetPlanned(b *testing.B, c *circuit.Circuit) {
	pat, f, g := benchDet(b, c)
	var sc sparse.Scratch
	factor := func() *sparse.LU {
		lu, err := pat.factorAt(&sc, 1i, f, g)
		if err != nil {
			b.Fatal(err)
		}
		return lu
	}
	factor()
	if !pat.plan.Primed() {
		b.Fatal("first factorization did not prime the plan")
	}
	factor()
	timeAlone(b, func() {
		if factor().Det().Zero() {
			b.Fatal("zero det")
		}
	})
}

func BenchmarkDetPlannedBiquad(b *testing.B)   { benchDetPlanned(b, circuits.Biquad()) }
func BenchmarkDetPlannedLadder40(b *testing.B) { benchDetPlanned(b, circuits.RCLadder(40, 1e3, 1e-9)) }
func BenchmarkDetPlannedUA741(b *testing.B)    { benchDetPlanned(b, circuits.UA741()) }

// BenchmarkDetLanesUA741 times the determinant-only lane replay every
// nodal evaluator runs: one op is the half circle of a K = 49 frame of
// det Y (25 points, sparse.Lanes per pass) at the seed scales, through
// a reused workspace on a primed plan. ns/point compares with a
// BenchmarkDetPlannedUA741 op.
func BenchmarkDetLanesUA741(b *testing.B) {
	pat, f, g := benchDet(b, circuits.UA741())
	const k = 49
	pts := dft.UnitCirclePoints(k)[:dft.HermitianHalf(k)]
	dst := make([]xmath.XComplex, len(pts))
	var sc sparse.Scratch
	pat.dets(&sc, dst, pts, f, g)
	if !pat.plan.Primed() {
		b.Fatal("first pass did not prime the plan")
	}
	timeAlone(b, func() { pat.dets(&sc, dst, pts, f, g) })
	for _, d := range dst {
		if d.Zero() {
			b.Fatal("zero det")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/point")
}

// BenchmarkDetSolveLanesLadder40 times the joint Cramer path of every
// ladder40 voltage-gain generation: one op is the half circle of a
// K = 41 frame (21 points, sparse.Lanes per pass) through the voltage
// gain's EvalBothChunk at the seed scales on a primed plan — det Y and
// the solve against e_in, pooled scratch included. ns/point compares
// with a BenchmarkDetPlannedLadder40 op, which factors one point through
// the recording replay without solving.
func BenchmarkDetSolveLanesLadder40(b *testing.B) {
	c := circuits.RCLadder(40, 1e3, 1e-9)
	sys, err := Build(c)
	if err != nil {
		b.Fatal(err)
	}
	tf, err := sys.VoltageGain(c, "in", circuits.RCLadderOut(40))
	if err != nil {
		b.Fatal(err)
	}
	f, g, _, _ := c.SeedScales()
	const k = 41
	pts := dft.UnitCirclePoints(k)[:dft.HermitianHalf(k)]
	num, den := make([]xmath.XComplex, len(pts)), make([]xmath.XComplex, len(pts))
	tf.EvalBothChunk(num, den, pts, f, g)
	if !tf.BothReady() {
		b.Fatal("first chunk did not prime the plan")
	}
	timeAlone(b, func() { tf.EvalBothChunk(num, den, pts, f, g) })
	for i := range pts {
		if num[i].Zero() || den[i].Zero() {
			b.Fatal("zero joint value")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/point")
}

// BenchmarkDetSparseUA741 times the full Markowitz factorization that
// primes a pattern's plan in every cold µA741 generation (and answers a
// plan miss): the typed stamps of the differential-gain denominator —
// the shorted input pair — at s = j and the seed scales, assembled into
// flat rows and factored for the determinant alone, without a plan,
// through a reused scratch. The warm-up factorization grows the
// scratch, so an op allocates nothing.
func BenchmarkDetSparseUA741(b *testing.B) {
	u := circuits.UA741()
	sys, err := Build(u)
	if err != nil {
		b.Fatal(err)
	}
	inp, inn, _ := circuits.UA741Inputs()
	pat := sys.shortedPattern(u.NodeIndex(inp), u.NodeIndex(inn))
	f, g, _, _ := u.SeedScales()
	var sc sparse.Scratch
	pts := []complex128{1i}
	var det [1]xmath.XComplex
	factor := func() {
		sc.WS.Dets(nil, pat.assembly(), pts, f, g, det[:])
		if det[0].Zero() {
			b.Fatal("zero det")
		}
	}
	factor()
	timeAlone(b, factor)
}

// benchDetDense times the dense LU determinant of c's full node-
// admittance matrix at s = j and the circuit's seed scales: the
// ablation the sparse factorizations are compared with.
func benchDetDense(b *testing.B, c *circuit.Circuit) {
	sys, err := Build(c)
	if err != nil {
		b.Fatal(err)
	}
	f, g, _, _ := c.SeedScales()
	sm := sys.matrixAt(1i, f, g)
	n := sm.N()
	m := dense.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := sm.At(i, j); v != 0 {
				m.Set(i, j, v)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Det().Zero() {
			b.Fatal("zero det")
		}
	}
}

func BenchmarkDetDenseBiquad(b *testing.B)   { benchDetDense(b, circuits.Biquad()) }
func BenchmarkDetDenseLadder40(b *testing.B) { benchDetDense(b, circuits.RCLadder(40, 1e3, 1e-9)) }
func BenchmarkDetDenseUA741(b *testing.B)    { benchDetDense(b, circuits.UA741()) }
