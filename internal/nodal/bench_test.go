package nodal

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/dft"
	"repro/internal/sparse"
	"repro/internal/xmath"
)

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

// benchDetPlanned times the recording replay a joint Cramer solve runs:
// the typed stamps of det Y at s = j assembled into the compiled plan's
// slots of a reused workspace, the replay that keeps the U rows and
// multipliers, and LU.Det. The first factorization primes the plan and
// the second grows the workspace, so an op allocates nothing.
func benchDetPlanned(b *testing.B, c *circuit.Circuit) {
	pat, f, g := benchDet(b, c)
	var sc evalScratch
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if factor().Det().Zero() {
			b.Fatal("zero det")
		}
	}
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
	var sc evalScratch
	pat.dets(&sc, dst, pts, f, g)
	if !pat.plan.Primed() {
		b.Fatal("first pass did not prime the plan")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pat.dets(&sc, dst, pts, f, g)
	}
	b.StopTimer()
	for _, d := range dst {
		if d.Zero() {
			b.Fatal("zero det")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/point")
}
