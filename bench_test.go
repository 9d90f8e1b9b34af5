// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Absolute times are not comparable to the paper's 1997 SPARCstation 10
// numbers; the reproduced claims are the *shapes*: which method fails
// where (Tables 1a/1b), that the adaptive algorithm tiles the whole
// coefficient range in a handful of interpolations (Tables 2-3), that
// the coefficient response matches direct AC analysis (Fig. 2), and
// that eq. (17) reduction cuts the per-iteration cost (§3.3).
package repro_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bode"
	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/dft"
	"repro/internal/interp"
	"repro/internal/mna"
	"repro/internal/montecarlo"
	"repro/internal/nodal"
	"repro/internal/roots"
	"repro/internal/sbg"
	"repro/internal/sensitivity"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/xmath"
	"repro/pkg/engine"
)

// --- experiment fixtures ---

func otaDen(b *testing.B) interp.Evaluator {
	b.Helper()
	c := circuits.OTA()
	inp, inn, out := circuits.OTAInputs()
	sys, err := nodal.Build(c)
	if err != nil {
		b.Fatal(err)
	}
	tf, err := sys.DifferentialVoltageGain(c, inp, inn, out)
	if err != nil {
		b.Fatal(err)
	}
	tf.Den.OrderBound = c.NumCapacitors() // the paper's estimate: 9
	return tf.Den
}

func ua741TF(b *testing.B) (*circuit.Circuit, *interp.TransferFunction, core.Config) {
	b.Helper()
	c := circuits.UA741()
	inp, inn, out := circuits.UA741Inputs()
	sys, err := nodal.Build(c)
	if err != nil {
		b.Fatal(err)
	}
	tf, err := sys.DifferentialVoltageGain(c, inp, inn, out)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		InitFScale: 1 / c.MeanCapacitance(),
		InitGScale: 1 / c.MeanConductance(),
	}
	return c, tf, cfg
}

// --- Table 1a: unit-circle interpolation on the OTA (the failing baseline) ---

func BenchmarkTable1aUnitCircle(b *testing.B) {
	den := otaDen(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := interp.UnitCircle(den)
		if res.K != den.OrderBound+1 {
			b.Fatal("wrong point count")
		}
	}
}

// --- Table 1b: single fixed scale pair on the OTA ---

func BenchmarkTable1bFixedScale(b *testing.B) {
	den := otaDen(b)
	c := circuits.OTA()
	fs, gs := 1/c.MeanCapacitance(), 1/c.MeanConductance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := interp.FixedScale(den, fs, gs)
		if _, _, ok := interp.ValidRegion(res.Normalized, 6); !ok {
			b.Fatal("no valid region")
		}
	}
}

// --- Tables 2a/2b/3: the adaptive algorithm on the µA741 denominator ---

func BenchmarkTable2and3AdaptiveUA741(b *testing.B) {
	_, tf, cfg := ua741TF(b)
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		den, err := core.Generate(tf.Den, cfg)
		if err != nil {
			b.Fatal(err)
		}
		iters = len(den.Iterations)
	}
	b.ReportMetric(float64(iters), "interpolations")
}

// --- §3.3: per-iteration cost, reduction on vs off ---

func BenchmarkReductionOn(b *testing.B) {
	_, tf, cfg := ua741TF(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Generate(tf.Den, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReductionOff(b *testing.B) {
	_, tf, cfg := ua741TF(b)
	cfg.NoReduce = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Generate(tf.Den, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterationCostShape reports the §3.3 shape directly: the point
// count of each successive interpolation with reduction enabled
// (decreasing, like the paper's 3.9 s → 2.3 s → 0.9 s).
func BenchmarkIterationCostShape(b *testing.B) {
	_, tf, cfg := ua741TF(b)
	var den *core.Result
	var err error
	for i := 0; i < b.N; i++ {
		den, err = core.Generate(tf.Den, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, it := range den.Iterations {
		if i >= 5 {
			break
		}
		b.ReportMetric(float64(it.K), fmt.Sprintf("K_iter%d", i))
	}
}

// --- Fig. 2: Bode response from coefficients vs direct AC analysis ---

func BenchmarkFig2BodeFromCoefficients(b *testing.B) {
	_, tf, cfg := ua741TF(b)
	num, err := core.Generate(tf.Num, cfg)
	if err != nil {
		b.Fatal(err)
	}
	den, err := core.Generate(tf.Den, cfg)
	if err != nil {
		b.Fatal(err)
	}
	np, dp := num.Poly(), den.Poly()
	freqs := bode.LogSpace(1, 1e8, 81)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bode.FromPolys(np, dp, freqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2DirectACAnalysis(b *testing.B) {
	c := circuits.UA741()
	inp, inn, out := circuits.UA741Inputs()
	freqs := bode.LogSpace(1, 1e8, 81)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mna.Response(ctx, c, "diffgain", inp, inn, out, freqs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- scalability: adaptive generation vs circuit size ---

func benchLadder(b *testing.B, n int) {
	c := circuits.RCLadder(n, 1e3, 1e-12)
	sys, err := nodal.Build(c)
	if err != nil {
		b.Fatal(err)
	}
	tf, err := sys.VoltageGain(c, "in", circuits.RCLadderOut(n))
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		InitFScale:    1 / c.MeanCapacitance(),
		InitGScale:    1 / c.MeanConductance(),
		MaxIterations: 300,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Generate(tf.Den, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalabilityLadder10(b *testing.B) { benchLadder(b, 10) }
func BenchmarkScalabilityLadder20(b *testing.B) { benchLadder(b, 20) }
func BenchmarkScalabilityLadder40(b *testing.B) { benchLadder(b, 40) }
func BenchmarkScalabilityLadder60(b *testing.B) { benchLadder(b, 60) }

// --- ablation: simultaneous √q split vs single-factor scaling (§3.2) ---

func BenchmarkAblationSimultaneousScaling(b *testing.B) {
	_, tf, cfg := ua741TF(b)
	b.ResetTimer()
	var maxF float64
	for i := 0; i < b.N; i++ {
		den, err := core.Generate(tf.Den, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range den.Iterations {
			if it.FScale > maxF {
				maxF = it.FScale
			}
		}
	}
	b.ReportMetric(math.Log10(maxF), "log10_max_fscale")
}

func BenchmarkAblationSingleFactorScaling(b *testing.B) {
	_, tf, cfg := ua741TF(b)
	cfg.SingleFactor = true
	b.ResetTimer()
	var maxF float64
	var unresolved int
	for i := 0; i < b.N; i++ {
		den, _ := core.Generate(tf.Den, cfg)
		// Single-factor scaling may fail to resolve everything — that is
		// the paper's point; count it rather than aborting.
		for _, it := range den.Iterations {
			if it.FScale > maxF {
				maxF = it.FScale
			}
		}
		unresolved = 0
		for _, cf := range den.Coeffs {
			if cf.Status == core.Unknown {
				unresolved++
			}
		}
	}
	b.ReportMetric(math.Log10(maxF), "log10_max_fscale")
	b.ReportMetric(float64(unresolved), "unresolved_coeffs")
}

// --- ablation: tuning factor r (region overlap vs iteration count) ---

func benchTuningR(b *testing.B, r float64) {
	_, tf, cfg := ua741TF(b)
	cfg.TuningR = r
	var iters int
	for i := 0; i < b.N; i++ {
		den, err := core.Generate(tf.Den, cfg)
		if err != nil {
			b.Fatal(err)
		}
		iters = len(den.Iterations)
	}
	b.ReportMetric(float64(iters), "interpolations")
}

func BenchmarkAblationTuningRMinus2(b *testing.B) { benchTuningR(b, -2) }
func BenchmarkAblationTuningRZero(b *testing.B)   { benchTuningR(b, 0) }
func BenchmarkAblationTuningRPlus2(b *testing.B)  { benchTuningR(b, 2) }

// --- ablation: sparse Markowitz LU vs dense LU determinants ---

// nodalMatrix assembles the circuit's scaled node-admittance matrix at
// s = j, the setting of the generator's unit-circle points.
func nodalMatrix(b *testing.B, c *circuit.Circuit) *sparse.Matrix {
	b.Helper()
	sys, err := nodal.Build(c)
	if err != nil {
		b.Fatal(err)
	}
	return sys.MatrixAt(complex(0, 1), 1/c.MeanCapacitance(), 1/c.MeanConductance())
}

func ua741Matrix(b *testing.B) *sparse.Matrix { return nodalMatrix(b, circuits.UA741()) }

// BenchmarkDetSparseUA741 times the production full Markowitz
// factorization — the one that primes a plan or answers a plan miss: a
// reused workspace, the matrix's entries assembled without a plan,
// Factor. The warm-up factorization grows the workspace, so an op
// allocates nothing.
func BenchmarkDetSparseUA741(b *testing.B) {
	a := matrixEntries(ua741Matrix(b))
	var ws sparse.Workspace
	factor := func() *sparse.LU {
		ws.Assemble(nil, a, 0, 1, 1)
		f, err := ws.Factor()
		if err != nil {
			b.Fatal(err)
		}
		return f
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

// matrixEntries lists m's nonzeros in row-major order as an assembly
// that reproduces m: every value in the unscaled block.
func matrixEntries(m *sparse.Matrix) *sparse.Assembly {
	a := &sparse.Assembly{N: m.N()}
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if v := m.At(i, j); v != 0 {
				a.Pos = append(a.Pos, [2]int32{int32(i), int32(j)})
				a.U = append(a.U, v)
			}
		}
	}
	return a
}

func benchDetDense(b *testing.B, sm *sparse.Matrix) {
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

func BenchmarkDetDenseBiquad(b *testing.B) { benchDetDense(b, nodalMatrix(b, circuits.Biquad())) }
func BenchmarkDetDenseLadder40(b *testing.B) {
	benchDetDense(b, nodalMatrix(b, circuits.RCLadder(40, 1e3, 1e-9)))
}
func BenchmarkDetDenseUA741(b *testing.B) { benchDetDense(b, ua741Matrix(b)) }

// The planned and lane replays (BenchmarkDetPlanned*,
// BenchmarkDetLanesUA741) are timed in internal/nodal, on the typed
// stamps the nodal backend assembles from.

// --- ablation: direct O(K²) IDFT vs radix-2 FFT ---

func benchIDFT(b *testing.B, k int) {
	vals := make([]xmath.XComplex, k)
	for i := range vals {
		vals[i] = xmath.FromComplex(complex(float64(i+1), float64(k-i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dft.Inverse(vals)
	}
}

func BenchmarkIDFTDirect49(b *testing.B) { benchIDFT(b, 49) } // µA741 size, direct path
func BenchmarkIDFTFFT64(b *testing.B)    { benchIDFT(b, 64) } // power of two, FFT path

// --- the motivating application: SDG truncation with references ---

func BenchmarkSDGTruncation(b *testing.B) {
	c := circuits.GmCCascade(4, 1e-4, 1e-5, 1e-12)
	out := circuits.GmCCascadeOut(4)
	sys, err := nodal.Build(c)
	if err != nil {
		b.Fatal(err)
	}
	tf, err := sys.VoltageGain(c, "in", out)
	if err != nil {
		b.Fatal(err)
	}
	_, den, err := core.GenerateTransferFunction(c, tf, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	_, symDen, err := symbolic.VoltageGain(c, "in", out)
	if err != nil {
		b.Fatal(err)
	}
	refs := den.Poly()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k <= symDen.MaxPower(); k++ {
			if len(symDen.ByPower[k]) == 0 {
				continue
			}
			if _, err := symbolic.TruncateSDG(symDen.ByPower[k], refs[k], 0.01); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- ablation: unit-circle DFT vs real-point Vandermonde (§2.1) ---

func BenchmarkAblationUnitCirclePoints(b *testing.B) {
	den := otaDen(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		res := interp.Run(den, 1, 1, den.OrderBound+1)
		worst = res.Denormalized[0].Abs().Log10()
	}
	b.ReportMetric(worst, "log10_p0")
}

func BenchmarkAblationRealPoints(b *testing.B) {
	den := otaDen(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		res := interp.RunRealPoints(den, 1, 1, den.OrderBound+1)
		if !res.Denormalized[0].Zero() {
			worst = res.Denormalized[0].Abs().Log10()
		}
	}
	b.ReportMetric(worst, "log10_p0")
}

// --- extension: full-MNA interpolation path (paper §2, eqs. 7-10) ---

func BenchmarkMNAButterworthLadder(b *testing.B) {
	w0 := 2 * math.Pi * 1e6
	c := circuits.LCLadder(7, 50, w0)
	msys, err := mna.Build(c)
	if err != nil {
		b.Fatal(err)
	}
	tf, err := msys.TransferEvaluators("out")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{SingleFactor: true, InitFScale: 1 / w0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Generate(tf.Den, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- extension: pole extraction from generated references ---

func BenchmarkPolesUA741(b *testing.B) {
	_, tf, cfg := ua741TF(b)
	den, err := core.Generate(tf.Den, cfg)
	if err != nil {
		b.Fatal(err)
	}
	dp := den.Poly()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := roots.Find(dp, roots.Config{MaxIterations: 400}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- extension: reference-controlled SBG simplification ---

func BenchmarkSBGUA741(b *testing.B) {
	c := circuits.UA741()
	inp, inn, out := circuits.UA741Inputs()
	freqs := bode.LogSpace(10, 1e7, 11)
	ref, err := sbg.ReferenceResponse(c, inp, inn, out, freqs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var removed int
	for i := 0; i < b.N; i++ {
		res, err := sbg.Simplify(c, inp, inn, out, freqs, ref, sbg.Config{MaxErrDB: 1, MaxPhaseDeg: 10})
		if err != nil {
			b.Fatal(err)
		}
		removed = res.Before - res.After
	}
	b.ReportMetric(float64(removed), "elements_removed")
}

// --- extensions: tolerance, sensitivity, two-port, lazy SDG ---

func BenchmarkMonteCarloOTA(b *testing.B) {
	c := circuits.OTA()
	spec := engine.Spec{Kind: "diffgain", In: "inp", Inn: "inn", Out: "out"}
	freqs := bode.LogSpace(1e3, 1e9, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := montecarlo.Run(c, spec, freqs, montecarlo.Config{Samples: 20, Tolerance: 0.1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSensitivityOTA(b *testing.B) {
	c := circuits.OTA()
	spec := engine.Spec{Kind: "diffgain", In: "inp", Inn: "inn", Out: "out"}
	freqs := []float64{1e4, 1e7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sensitivity.Analyze(c, spec, freqs, sensitivity.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSDGStreamFirst10(b *testing.B) {
	c := circuits.GmCCascade(4, 1e-4, 1e-5, 1e-12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, err := symbolic.StreamVoltageGainDen(c, "in")
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			if _, ok := ts.Next(); !ok {
				b.Fatal("stream dried up")
			}
		}
	}
}

// --- end-to-end: whole reference generation for both polynomials ---

func BenchmarkEndToEndUA741(b *testing.B) {
	c, tf, cfg := ua741TF(b)
	_ = c
	var solves, frames int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		num, err := core.Generate(tf.Num, cfg)
		if err != nil {
			b.Fatal(err)
		}
		den, err := core.Generate(tf.Den, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if num.Order() < 0 || den.Order() < 0 {
			b.Fatal("degenerate result")
		}
		solves = num.TotalSolves + den.TotalSolves
		frames = len(num.Iterations) + len(den.Iterations)
	}
	// Exact work counts of one generation, gated by benchjson.
	b.ReportMetric(float64(solves), "solves/op")
	b.ReportMetric(float64(frames), "interpolations/op")
}

// --- batch sweeps: warm-start amortization vs the cold ablation ---

// benchGenerateBatch sweeps a deterministic ±5% Monte Carlo point set
// through engine.GenerateBatch and reports the amortization counters.
// The counters are exact work counts under a fixed seed — identical on
// every host — so benchjson gates them in CI; the warm variants must
// show solves/point well under their NoWarm ablations.
func benchGenerateBatch(b *testing.B, c *circuit.Circuit, spec engine.Spec, points int, noWarm bool) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pts := make([]engine.BatchPoint, points)
	for i := range pts {
		scale := make(map[string]float64, len(c.Elements()))
		for _, e := range c.Elements() {
			scale[e.Name] = 1 + 0.05*(2*rng.Float64()-1)
		}
		pts[i] = engine.BatchPoint{Scale: scale}
	}
	opts := engine.Options{MaxIterations: 300}
	var last *engine.BatchResponse
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := eng.GenerateBatch(context.Background(), engine.BatchRequest{
			Circuit: c, Spec: spec, Points: pts, Options: &opts, NoWarmStart: noWarm,
		})
		if err != nil {
			b.Fatal(err)
		}
		if resp.Failures != 0 {
			b.Fatalf("%d failed points", resp.Failures)
		}
		last = resp
	}
	b.ReportMetric(float64(last.WarmStarts), "warm-starts/op")
	b.ReportMetric(float64(last.ColdFallbacks), "cold-fallbacks/op")
	b.ReportMetric(last.SolvesPerPoint(), "solves/point")
}

func BenchmarkGenerateBatchLadder40Warm(b *testing.B) {
	benchGenerateBatch(b, circuits.RCLadder(40, 1e3, 1e-9),
		engine.Spec{Kind: "vgain", In: "in", Out: circuits.RCLadderOut(40)}, 16, false)
}

func BenchmarkGenerateBatchLadder40NoWarm(b *testing.B) {
	benchGenerateBatch(b, circuits.RCLadder(40, 1e3, 1e-9),
		engine.Spec{Kind: "vgain", In: "in", Out: circuits.RCLadderOut(40)}, 16, true)
}

func BenchmarkGenerateBatchBiquadWarm(b *testing.B) {
	in, out := circuits.BiquadNodes()
	benchGenerateBatch(b, circuits.Biquad(), engine.Spec{Kind: "vgain", In: in, Out: out}, 16, false)
}

func BenchmarkGenerateBatchBiquadNoWarm(b *testing.B) {
	in, out := circuits.BiquadNodes()
	benchGenerateBatch(b, circuits.Biquad(), engine.Spec{Kind: "vgain", In: in, Out: out}, 16, true)
}
