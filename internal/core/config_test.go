package core

import (
	"errors"
	"testing"

	"repro/internal/interp"
	"repro/internal/poly"
)

func TestSigDigitsControlsWindowWidth(t *testing.T) {
	// With a per-index ratio of 1e-2, a σ=6 window (7 decades) covers
	// more coefficients per interpolation than a σ=10 window (3 decades):
	// σ=10 must need at least as many iterations.
	logs := make([]float64, 13)
	for i := range logs {
		logs[i] = -10 - 2*float64(i)
	}
	want := profilePoly(logs, nil)
	ev := interp.FromPoly("σtest", want, 13)
	loose, err := Generate(ev, Config{SigDigits: 6, InitFScale: 100})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Generate(ev, Config{SigDigits: 10, InitFScale: 100})
	if err != nil {
		t.Fatal(err)
	}
	checkRecovery(t, loose, want, 1e-4)
	checkRecovery(t, tight, want, 1e-8) // σ=10 ⇒ ≥10 digits
	if len(tight.Iterations) < len(loose.Iterations) {
		t.Errorf("σ=10 used %d iterations, σ=6 used %d", len(tight.Iterations), len(loose.Iterations))
	}
}

func TestSingleFactorRecoversBenign(t *testing.T) {
	// Frequency-only scaling still tiles a moderate profile.
	logs := []float64{-10, -15, -20, -25, -30}
	want := profilePoly(logs, nil)
	res, err := Generate(interp.FromPoly("single", want, 5),
		Config{SingleFactor: true, InitFScale: 1e5})
	if err != nil {
		t.Fatal(err)
	}
	checkRecovery(t, res, want, 1e-4)
	// g must never have moved.
	for _, it := range res.Iterations {
		if it.GScale != 1 {
			t.Errorf("gscale moved to %g under SingleFactor", it.GScale)
		}
	}
}

func TestIterationTraceInvariants(t *testing.T) {
	want := ua741Profile()
	res, err := Generate(interp.FromPoly("trace", want, 49), Config{InitFScale: 1e8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) == 0 {
		t.Fatal("no iterations recorded")
	}
	first := res.Iterations[0]
	if first.Purpose != "initial" {
		t.Errorf("first purpose %q", first.Purpose)
	}
	if first.K != len(want) {
		t.Errorf("first K = %d, want %d", first.K, len(want))
	}
	validPurposes := map[string]bool{"initial": true, "up": true, "down": true, "repair": true}
	totalNew := 0
	for i, it := range res.Iterations {
		if !validPurposes[it.Purpose] {
			t.Errorf("iteration %d: purpose %q", i, it.Purpose)
		}
		if it.FScale <= 0 || it.GScale <= 0 {
			t.Errorf("iteration %d: non-positive scales %g/%g", i, it.FScale, it.GScale)
		}
		if it.K < 1 || it.K > len(want) {
			t.Errorf("iteration %d: K = %d", i, it.K)
		}
		if it.Lo <= it.Hi {
			if it.Lo < 0 || it.Hi >= len(want) {
				t.Errorf("iteration %d: region [%d,%d] out of range", i, it.Lo, it.Hi)
			}
		}
		if it.Elapsed < 0 {
			t.Errorf("iteration %d: negative elapsed", i)
		}
		totalNew += it.NewValid
	}
	valid := 0
	for _, c := range res.Coeffs {
		if c.Status == Valid {
			valid++
		}
	}
	if totalNew != valid {
		t.Errorf("Σ NewValid = %d, valid coefficients = %d", totalNew, valid)
	}
}

func TestCoefficientIterationAttribution(t *testing.T) {
	want := ua741Profile()
	res, err := Generate(interp.FromPoly("attr", want, 49), Config{InitFScale: 1e8})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Coeffs {
		if c.Iteration < 0 || c.Iteration >= len(res.Iterations) {
			t.Errorf("s^%d attributed to iteration %d of %d", i, c.Iteration, len(res.Iterations))
		}
		if c.Status == Valid && c.Quality < 0 {
			t.Errorf("s^%d negative quality %g", i, c.Quality)
		}
	}
}

func TestPolyZeroesNonValid(t *testing.T) {
	logs := []float64{0, -9, -18}
	want := profilePoly(logs, nil)
	padded := make(poly.XPoly, 6)
	copy(padded, want)
	ev := interp.Evaluator{
		Name: "p", M: 6, OrderBound: 5,
		Eval: interp.FromPoly("p", padded, 6).Eval,
	}
	res, err := Generate(ev, Config{InitFScale: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Poly()
	for i := 3; i < len(out); i++ {
		if !out[i].Zero() {
			t.Errorf("Poly()[%d] = %v, want 0 for non-valid", i, out[i])
		}
	}
}

// TestNormalizeIdempotentAndKeyed: Normalize is a fixed point after one
// application, and spellings of one meaning render one Key.
func TestNormalizeIdempotentAndKeyed(t *testing.T) {
	cfgs := []Config{
		{},
		{SigDigits: 6, MaxIterations: 64, StallLimit: 3, FrameRetries: 2, WatchdogStall: 12, MaxScaleDriftLog10: 18},
		{FrameRetries: -7, WatchdogStall: -2, MaxScaleDriftLog10: -3},
		{SingleFactor: true},
		{StallLimit: 5, InitFScale: 1e6, TuningR: -1},
	}
	keys := map[string]bool{}
	for i, c := range cfgs {
		once, err := c.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		twice, err := once.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if once.Key() != twice.Key() {
			t.Errorf("config %d: Normalize not idempotent: %s vs %s", i, once.Key(), twice.Key())
		}
		keys[once.Key()] = true
	}
	if len(keys) != 4 {
		t.Errorf("%d distinct keys, want 4 (the first two configs are one meaning)", len(keys))
	}
}

// TestImpossibleSigmaRefused: σ above MaxSigDigits leaves nothing above
// the noise floor, so it must be refused, not certified as all zeros.
func TestImpossibleSigmaRefused(t *testing.T) {
	ev := interp.FromPoly("σ", poly.NewX(1, 2, 3), 2)
	for _, sig := range []int{-1, MaxSigDigits + 1, 14, 20} {
		res, err := Generate(ev, Config{SigDigits: sig})
		var oe *OptionError
		if !errors.As(err, &oe) || !errors.Is(err, ErrBadOptions) || oe.Field != "sig_digits" || res != nil {
			t.Errorf("σ = %d: Generate = (%v, %v), want an *OptionError for sig_digits", sig, res, err)
		}
	}
	if _, err := Generate(ev, Config{SigDigits: MaxSigDigits}); err != nil {
		t.Errorf("σ = %d refused: %v", MaxSigDigits, err)
	}
}
