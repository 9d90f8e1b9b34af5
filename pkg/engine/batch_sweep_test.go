package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/core"
)

// sweepPointCount reads the BATCH_SWEEP_POINTS override (the CI
// batch-sweep job sets 256, nightly 10000) and falls back to a quick
// local default.
func sweepPointCount(t *testing.T, def int) int {
	s := os.Getenv("BATCH_SWEEP_POINTS")
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 2 {
		t.Fatalf("bad BATCH_SWEEP_POINTS %q", s)
	}
	return n
}

// tolerancePoints draws a deterministic ±tol Monte Carlo sweep over
// every element of the circuit.
func tolerancePoints(c *Circuit, n int, tol float64, seed int64) []BatchPoint {
	rng := rand.New(rand.NewSource(seed))
	points := make([]BatchPoint, n)
	for i := range points {
		scale := make(map[string]float64, len(c.Elements()))
		for _, e := range c.Elements() {
			scale[e.Name] = 1 + tol*(2*rng.Float64()-1)
		}
		points[i] = BatchPoint{Scale: scale}
	}
	return points
}

// scaledCircuit rebuilds one design point's circuit, mirroring the batch
// layer's point application, for standalone re-generation.
func scaledCircuit(base *Circuit, p BatchPoint) *Circuit {
	out := circuit.New(base.Name)
	for _, el := range base.Elements() {
		if f, ok := p.Scale[el.Name]; ok {
			el.Value *= f
		}
		if err := out.AddElement(el); err != nil {
			panic(err)
		}
	}
	return out
}

// checkAgreement asserts two responses for the same design point agree:
// identical classifications and Valid values matching to well within the
// generator's σ=6 significant-digit guarantee.
func checkAgreement(t *testing.T, label string, got, want *Response) {
	t.Helper()
	pairs := []struct {
		name      string
		got, want *Result
	}{{"num", got.Num, want.Num}, {"den", got.Den, want.Den}}
	for _, p := range pairs {
		if len(p.got.Coeffs) != len(p.want.Coeffs) {
			t.Errorf("%s %s: coefficient count %d vs %d", label, p.name, len(p.got.Coeffs), len(p.want.Coeffs))
			continue
		}
		for i := range p.got.Coeffs {
			g, w := p.got.Coeffs[i], p.want.Coeffs[i]
			if g.Status != w.Status {
				t.Errorf("%s %s s^%d: status %v vs %v", label, p.name, i, g.Status, w.Status)
				continue
			}
			if g.Status == Valid && !g.Value.ApproxEqual(w.Value, 1e-5) {
				t.Errorf("%s %s s^%d: value %v vs %v", label, p.name, i, g.Value, w.Value)
			}
		}
	}
}

// runBatchSweep drives the full gate for one fixture: a warm chained
// sweep against its NoWarmStart ablation (sweepPair) plus per-point
// self-replay bit-identity on a sample of points. It returns both
// responses for fixture-specific assertions (the solves/point gates).
func runBatchSweep(t *testing.T, ckt *Circuit, spec Spec, n int, tol float64) (warm, cold *BatchResponse) {
	t.Helper()
	warm, cold = sweepPair(t, ckt, spec, n, tol)
	selfReplay(t, ckt, spec, tolerancePoints(ckt, n, tol, 7), warm)
	return warm, cold
}

// sweepPair runs a warm chained sweep and its NoWarmStart ablation,
// asserting per-point health, that every chained point warm-starts, and
// warm-vs-cold agreement.
func sweepPair(t *testing.T, ckt *Circuit, spec Spec, n int, tol float64) (warm, cold *BatchResponse) {
	t.Helper()
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A frame budget far above any fixture's need: a budget trip would
	// degrade points instead of measuring them.
	opts := Options{MaxIterations: 300}
	points := tolerancePoints(ckt, n, tol, 7)
	warm, err = eng.GenerateBatch(context.Background(), BatchRequest{Circuit: ckt, Spec: spec, Points: points, Options: &opts})
	if err != nil {
		t.Fatal(err)
	}
	cold, err = eng.GenerateBatch(context.Background(), BatchRequest{Circuit: ckt, Spec: spec, Points: points, Options: &opts, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Failures != 0 || cold.Failures != 0 {
		t.Fatalf("sweep failures: warm=%d cold=%d", warm.Failures, cold.Failures)
	}
	// The cold-fallback regression gate: after the first point, every
	// point of a ±tol sweep must warm-start.
	if warm.ColdFallbacks != 0 {
		for _, p := range warm.Points {
			if p.ColdFallback != "" {
				t.Errorf("point %d fell back cold: %s", p.Index, p.ColdFallback)
			}
		}
		t.Fatalf("ColdFallbacks = %d, want 0", warm.ColdFallbacks)
	}
	if warm.WarmStarts != n-1 {
		t.Errorf("WarmStarts = %d, want %d", warm.WarmStarts, n-1)
	}
	for i := range points {
		pw, pc := warm.Points[i], cold.Points[i]
		if pw.Degraded || pc.Degraded {
			t.Fatalf("point %d degraded: warm=%v cold=%v", i, pw.Degraded, pc.Degraded)
		}
		checkAgreement(t, fmt.Sprintf("point %d warm-vs-cold", i), pw.Response, pc.Response)
	}
	return warm, cold
}

// selfReplay regenerates a sample of the warm sweep's points standalone,
// each from its own schedule, and requires bit-identical coefficients.
func selfReplay(t *testing.T, ckt *Circuit, spec Spec, points []BatchPoint, warm *BatchResponse) {
	t.Helper()
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(points)
	// Bit-identity spot checks: replaying a warm point's own schedule on
	// its own circuit must reproduce it exactly (the warm-start
	// correctness contract, per point). Sampled to keep huge nightly
	// sweeps affordable.
	heurF, heurG := DefaultScales(ckt)
	stride := n / 8
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < n; i += stride {
		pt := scaledCircuit(ckt, points[i])
		opts := Options{MaxIterations: 300, InitFScale: heurF, InitGScale: heurG, WarmStart: warm.Points[i].Response.WarmState()}
		replay, err := eng.Generate(context.Background(), Request{Circuit: pt, Spec: spec, Options: &opts})
		if err != nil {
			t.Fatalf("point %d self-replay: %v", i, err)
		}
		if !replay.Num.WarmStarted || !replay.Den.WarmStarted {
			t.Fatalf("point %d self-replay ran cold (num=%q den=%q)",
				i, replay.Num.ColdFallback(), replay.Den.ColdFallback())
		}
		if !core.CoefficientsEqual(replay.Num.Coeffs, warm.Points[i].Response.Num.Coeffs) ||
			!core.CoefficientsEqual(replay.Den.Coeffs, warm.Points[i].Response.Den.Coeffs) {
			t.Errorf("point %d self-replay is not bit-identical", i)
		}
	}
}

// TestBatchSweepLadder40 is the CI sweep gate on the paper-scale
// fixture: a deterministic ±5% sweep over the 40-section RC ladder must
// warm-start every chained point and agree with the cold ablation. The
// numerator C_in,out is structurally a constant, so there is no
// discovery left for replay to skip: every point, warm or cold, costs
// the 23 numerator and 34 denominator solves of its productive frames
// (the denominator's down frame is one-sided), and no point may spend
// more.
func TestBatchSweepLadder40(t *testing.T) {
	n := sweepPointCount(t, 24)
	ckt, spec := ladderSpec(40)
	warm, cold := runBatchSweep(t, ckt, spec, n, 0.05)
	t.Logf("ladder40 %d points: warm %.1f solves/point, cold %.1f", n, warm.SolvesPerPoint(), cold.SolvesPerPoint())
	const maxSolves = 57
	for i := range warm.Points {
		if w, c := warm.Points[i].Solves, cold.Points[i].Solves; w > maxSolves || c > maxSolves {
			t.Errorf("point %d spent %d solves warm, %d cold; want at most %d", i, w, c, maxSolves)
		}
	}
}

// TestBatchSweepLCLadder is the amortization gate: on the MNA path,
// whose evaluators carry no structural degree window, a cold run still
// discovers the top of its range through stalled confirmation frames,
// and a warm sweep must skip them — at most half the cold solve count
// per point. It runs sweepPair without the standalone self-replay: a
// standalone MNA generation of a swept point is not bit-identical to the
// batch's even cold (an open ROADMAP item), so only agreement to σ
// digits is asserted here.
func TestBatchSweepLCLadder(t *testing.T) {
	n := sweepPointCount(t, 24)
	ckt, spec := lcLadderSpec()
	warm, cold := sweepPair(t, ckt, spec, n, 0.05)
	wsp, csp := warm.SolvesPerPoint(), cold.SolvesPerPoint()
	t.Logf("lc5 %d points: warm %.1f solves/point, cold %.1f (ratio %.2f)", n, wsp, csp, wsp/csp)
	if wsp > 0.5*csp {
		t.Errorf("warm sweep spent %.1f solves/point, more than half the cold %.1f", wsp, csp)
	}
}

// TestBatchSweepBiquad runs the same gate on the active biquad: a
// low-order fixture where warm starts must stay healthy even though
// there is little discovery cost to amortize (no solves gate).
func TestBatchSweepBiquad(t *testing.T) {
	n := sweepPointCount(t, 24)
	in, out := circuits.BiquadNodes()
	warm, cold := runBatchSweep(t, circuits.Biquad(), Spec{Kind: "vgain", In: in, Out: out}, n, 0.05)
	wsp, csp := warm.SolvesPerPoint(), cold.SolvesPerPoint()
	t.Logf("biquad %d points: warm %.1f solves/point, cold %.1f", n, wsp, csp)
	if wsp > csp {
		t.Errorf("warm sweep spent %.1f solves/point, above the cold %.1f", wsp, csp)
	}
}

// FuzzBatchWarmStart fuzzes the sweep geometry (seed, tolerance, point
// count) on the biquad and cross-checks every point of the warm chained
// sweep against the cold ablation: same classifications, matching Valid
// values. Warm starting is an optimization — it must never change what
// a point converges to.
func FuzzBatchWarmStart(f *testing.F) {
	f.Add(int64(7), 0.05, 6)
	f.Add(int64(1), 0.2, 3)
	f.Add(int64(42), 0.0, 2)
	f.Add(int64(-3), 0.12, 5)
	f.Fuzz(func(t *testing.T, seed int64, tol float64, n int) {
		if math.IsNaN(tol) || math.IsInf(tol, 0) {
			t.Skip()
		}
		tol = math.Abs(tol)
		if tol > 0.3 {
			tol = math.Mod(tol, 0.3)
		}
		if n < 2 {
			n = 2
		}
		if n > 6 {
			n = 2 + n%5
		}
		ckt := circuits.Biquad()
		in, out := circuits.BiquadNodes()
		spec := Spec{Kind: "vgain", In: in, Out: out}
		eng, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		points := tolerancePoints(ckt, n, tol, seed)
		warm, err := eng.GenerateBatch(context.Background(), BatchRequest{Circuit: ckt, Spec: spec, Points: points})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := eng.GenerateBatch(context.Background(), BatchRequest{Circuit: ckt, Spec: spec, Points: points, NoWarmStart: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range points {
			pw, pc := warm.Points[i], cold.Points[i]
			if pw.Err != nil || pc.Err != nil || pw.Degraded || pc.Degraded {
				continue
			}
			checkAgreement(t, fmt.Sprintf("seed=%d tol=%g point %d", seed, tol, i), pw.Response, pc.Response)
		}
	})
}
