package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuits"
	"repro/internal/interp"
	"repro/internal/nodal"
	"repro/internal/poly"
)

// concaveProfile is a log-concave coefficient profile of order n peaking
// at index peak: log10|p_i| = −curv·(i−peak)², signs alternating in
// pairs. Seeded at f = g = 1, the initial frame resolves only the
// indices near the peak and leaves Unknown runs at both ends.
func concaveProfile(n, peak int, curv float64) poly.XPoly {
	logs := make([]float64, n+1)
	signs := make([]int, n+1)
	for i := range logs {
		x := float64(i - peak)
		logs[i] = -curv * x * x
		signs[i] = 1 - 2*((i/2)%2)
	}
	return profilePoly(logs, signs)
}

// TestOneSidedFramesExact is the property behind one-sided directed
// frames: on random log-concave profiles with the peak mid-range, the
// first down frame interpolates only the low Unknown run (its K is
// below the full window), every Valid coefficient still matches the
// exact polynomial to σ digits, and every Negligible bound dominates
// the true value it bounds. The drift bound is off: the far ends of
// the steeper profiles sit hundreds of decades down.
func TestOneSidedFramesExact(t *testing.T) {
	const sig = 6
	tol := math.Pow(10, 1-sig)
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		n := 16 + rng.Intn(25)
		peak := n/3 + rng.Intn(n/3+1)
		curv := 0.3 + 1.2*rng.Float64()
		name := fmt.Sprintf("n=%d peak=%d curv=%.2f", n, peak, curv)
		want := concaveProfile(n, peak, curv)
		res, err := Generate(interp.FromPoly(name, want, n), Config{InitFScale: 1, InitGScale: 1, SigDigits: sig, MaxScaleDriftLog10: -1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if first := res.Iterations[0]; first.Lo == 0 || first.Hi == n {
			t.Fatalf("%s: initial region s^%d..s^%d touches an end; the profile leaves no far side", name, first.Lo, first.Hi)
		}
		if it := res.Iterations[1]; it.Purpose != "down" || it.Offset != 0 || it.K >= n+1 {
			t.Errorf("%s: first directed frame %s K=%d at s^%d, want a down frame narrower than the full window (K=%d)",
				name, it.Purpose, it.K, it.Offset, n+1)
		}
		for i, c := range res.Coeffs {
			switch c.Status {
			case Valid:
				if !c.Value.ApproxEqual(want[i], tol) {
					t.Errorf("%s s^%d: %v, exact %v", name, i, c.Value, want[i])
				}
			case Negligible:
				if want[i].Abs().CmpAbs(c.Bound) > 0 {
					t.Errorf("%s s^%d: bound %v below the exact %v", name, i, c.Bound, want[i])
				}
			default:
				t.Errorf("%s s^%d: %v", name, i, c.Status)
			}
		}
		if res.Disagreements != 0 {
			t.Errorf("%s: %d overlap disagreements", name, res.Disagreements)
		}
	}
}

// TestOneSidedFallbackKeepsFullWindow pins the safety rule: a one-sided
// span is taken only when the far-side bounds alias below
// 10^NoiseExp·maxKnown. At the scales eq. (15) proposes, the far side
// of a concave profile sits many decades under that; at the initial
// frame's own, flat scales the same bounds stand ~10^(σ−13) of the
// known maximum, so the down frame must keep the full window. NoReduce
// disables narrowing altogether.
func TestOneSidedFallbackKeepsFullWindow(t *testing.T) {
	const n = 24
	want := concaveProfile(n, 12, 0.5)
	start := func(cfg Config) (*generator, frame) {
		t.Helper()
		cfg, err := cfg.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		cfg.InitFScale, cfg.InitGScale = 1, 1
		g := newGenerator(context.Background(), interp.FromPoly("concave", want, n), cfg, getRunScratch())
		frames, done, err := g.startFrames()
		if err != nil || done {
			t.Fatalf("initial frame: done=%v err=%v", done, err)
		}
		return g, frames[0]
	}

	g, initial := start(Config{})
	prop, ok := g.policy.Propose(nil, &initial, g.cfg.TuningR, 0, 0)
	if !ok || prop.purpose != "down" {
		t.Fatalf("proposal %+v, ok=%v; want a down frame", prop, ok)
	}
	w, defl := g.frameSpan("down", prop.f, prop.g, 0)
	if !w.oneSided || w.k0 != 0 || w.l0 >= initial.lo || defl == nil {
		t.Errorf("tilted down frame: span %+v, want one-sided below s^%d", w, initial.lo)
	}
	w, defl = g.frameSpan("down", 1, 1, 0)
	if w.oneSided || w.k0 != 0 || w.l0 != n || defl != nil {
		t.Errorf("flat down frame: span %+v, want the full window [0, %d]", w, n)
	}
	// boundFar itself refuses those bounds at the flat scales.
	g.sc.defl.reset(g.res.Coeffs, 1, 1, g.ev.M, g.n, g.cfg.SigDigits)
	g.sc.defl.aim(span{k0: 0, l0: initial.lo - 1, kUse: pointCount(initial.lo, 0), oneSided: true})
	if g.boundFar(&g.sc.defl, 1, 1) {
		t.Error("boundFar admitted far-side bounds above 10^NoiseExp·maxKnown")
	}

	g, initial = start(Config{NoReduce: true})
	prop, _ = g.policy.Propose(nil, &initial, g.cfg.TuningR, 0, 0)
	if w, _ := g.frameSpan("down", prop.f, prop.g, 0); w.oneSided || w.k0 != 0 || w.l0 != n {
		t.Errorf("NoReduce down frame: span %+v, want the full window", w)
	}
}

// TestOneSidedRemeasuresUncertainEdge covers the edge of a one-sided
// span: on the RC ladder-40 denominator the initial frame resolves its
// lowest coefficient with too little quality margin to certify it. A
// full-window down frame re-measures and certifies it, so the one-sided
// span keeps it in the transform (not deflated), and the down frame
// still revises and certifies it.
func TestOneSidedRemeasuresUncertainEdge(t *testing.T) {
	c := circuits.RCLadder(40, 1e3, 1e-9)
	sys, err := nodal.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := sys.VoltageGain(c, "in", circuits.RCLadderOut(40))
	if err != nil {
		t.Fatal(err)
	}
	_, den, err := GenerateTransferFunction(c, tf, Config{MaxIterations: 300})
	if err != nil {
		t.Fatal(err)
	}
	edge := den.Iterations[0].Lo
	down := den.Iterations[1]
	if down.Purpose != "down" || down.Offset != 0 || down.K >= edge+guardPoints+1 || edge >= down.Offset+down.K {
		t.Fatalf("down frame K=%d at s^%d, want a one-sided span [0, %d]", down.K, down.Offset, edge)
	}
	if down.Subtracted[edge] || down.Revised == 0 || den.Coeffs[edge].Iteration != 1 {
		t.Errorf("edge s^%d: subtracted=%v, revised %d, resolved by frame %d; want re-measured by the down frame",
			edge, down.Subtracted[edge], down.Revised, den.Coeffs[edge].Iteration)
	}
	if tier := den.Quality.Coefficients[edge].Tier; tier != TierCertified {
		t.Errorf("edge s^%d graded %v, want certified", edge, tier)
	}
}

// TestSettleRecordsKeptFramesOnly pins where far-side bounds come from:
// a frame the schedule would drop records nothing, so a warm replay —
// which never runs it — sees the same bounds; a kept frame tightens
// them.
func TestSettleRecordsKeptFramesOnly(t *testing.T) {
	const n = 24
	cfg, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg.InitFScale, cfg.InitGScale = 1, 1
	g := newGenerator(context.Background(), interp.FromPoly("concave", concaveProfile(n, 12, 0.5), n), cfg, getRunScratch())
	if _, done, err := g.startFrames(); err != nil || done {
		t.Fatalf("initial frame: done=%v err=%v", done, err)
	}
	initial := slices.Clone(g.bounds)
	// A full-window frame tilted toward the high end measures the
	// high-side unknowns far more tightly than the initial frame did.
	fr, err := g.interpolate(10, 1, "repair", 0)
	if err != nil {
		t.Fatal(err)
	}
	it := &g.res.Iterations[len(g.res.Iterations)-1]
	kept := *it
	it.NewValid, it.Revised, it.Negligible = 0, 0, nil
	g.settle(&fr)
	if !slices.Equal(g.bounds, initial) {
		t.Error("a frame the schedule drops changed the far-side bounds")
	}
	*it = kept
	it.NewValid = max(it.NewValid, 1)
	g.settle(&fr)
	tighter := 0
	for i, b := range g.bounds {
		if b.CmpAbs(initial[i]) < 0 {
			tighter++
		}
	}
	if tighter == 0 {
		t.Error("a kept frame tightened no far-side bound")
	}
}

// TestWarmSelfReplayOneSided replays the schedule of a run that has
// both one-sided frames and dropped discovery frames on its own point:
// bounds are recorded only from frames the schedule keeps, so every
// replayed frame sees the same window, the same far-side bounds and the
// same transform, and the Result is bit-identical.
func TestWarmSelfReplayOneSided(t *testing.T) {
	const n = 30
	want := concaveProfile(n, 15, 1)
	cfg := Config{InitFScale: 1, InitGScale: 1, TuningR: -12}
	ev := interp.FromPoly("concave", want, n)
	cold, err := Generate(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := cold.Schedule()
	if len(sched.Frames) >= len(cold.Iterations) {
		t.Fatalf("cold run has no discovery frames (%d iterations, all contributing)", len(cold.Iterations))
	}
	if it := cold.Iterations[1]; it.Purpose != "down" || it.K >= n+1 {
		t.Fatalf("first directed frame %s K=%d: not one-sided", it.Purpose, it.K)
	}

	warmCfg := cfg
	warmCfg.WarmStart = &WarmStart{Num: sched}
	warm, err := Generate(ev, warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted || warm.ColdFallback() != "" {
		t.Fatalf("warm run did not replay (fallback %q)", warm.ColdFallback())
	}
	if !CoefficientsEqual(warm.Coeffs, cold.Coeffs) {
		t.Error("warm replay coefficients differ from the cold run")
	}
	if len(warm.Quality.Coefficients) != len(cold.Quality.Coefficients) || warm.Quality.Tier != cold.Quality.Tier {
		t.Fatalf("quality report differs: tier %v vs %v", warm.Quality.Tier, cold.Quality.Tier)
	}
	for i, wb := range warm.Quality.Coefficients {
		cb := cold.Quality.Coefficients[i]
		wb.Frame, cb.Frame = 0, 0 // provenance indexes legitimately differ
		if wb != cb {
			t.Errorf("s^%d: error bar %+v, cold %+v", i, wb, cb)
		}
	}
	// The replayed frames are the kept cold frames, transform for
	// transform.
	var kept []Iteration
	for i, it := range cold.Iterations {
		if i == 0 || it.contributing() {
			kept = append(kept, it)
		}
	}
	if len(kept) != len(warm.Iterations) {
		t.Fatalf("warm run has %d frames, the schedule %d", len(warm.Iterations), len(kept))
	}
	for i, it := range warm.Iterations {
		c := kept[i]
		if it.K != c.K || it.Offset != c.Offset || it.Lo != c.Lo || it.Hi != c.Hi || !sameBits(it.Normalized, c.Normalized) {
			t.Errorf("frame %d (%s): K=%d off=%d s^%d..s^%d, cold K=%d off=%d s^%d..s^%d, or normalized bits differ",
				i, it.Purpose, it.K, it.Offset, it.Lo, it.Hi, c.K, c.Offset, c.Lo, c.Hi)
		}
	}
}

// sameBits reports whether two normalized windows are bit-identical.
func sameBits(a, b poly.XPoly) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(a[i].Zero() && b[i].Zero()) {
			return false
		}
	}
	return true
}
