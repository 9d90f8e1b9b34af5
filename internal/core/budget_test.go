package core

import (
	"errors"

	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/xmath"
)

// The execution budget (Config.MaxSolves) bounds the work of one
// generation without changing its identity: a run that stays under its
// grant is bit-identical to an unbudgeted run, and a run that trips the
// grant always degrades into a labeled partial Result that never
// exceeded it. Every other failure keeps its typed error.

// solveBudgetFault returns the *BudgetError of res's solve-budget fault
// event, failing the test when there is none.
func solveBudgetFault(t *testing.T, res *Result) (*BudgetError, QualityEvent) {
	t.Helper()
	for _, ev := range res.Quality.Events {
		var berr *BudgetError
		if ev.Kind == EventFault && errors.As(ev.Err, &berr) {
			if !errors.Is(ev.Err, ErrIterationBudget) {
				t.Errorf("fault %v does not match ErrIterationBudget", ev.Err)
			}
			return berr, ev
		}
	}
	t.Fatalf("no budget fault event in %v", res.Quality.Events)
	return nil, QualityEvent{}
}

// checkSolveBudgetDegraded pins the degrade contract of a run granted 40
// solves: a degraded tier, a "solves" fault that names the solve budget
// and the bound it crossed, and a solve count inside the grant.
func checkSolveBudgetDegraded(t *testing.T, res *Result) {
	t.Helper()
	if res.Quality.Tier != TierDegraded {
		t.Fatalf("tier = %v, want degraded", res.Quality.Tier)
	}
	berr, ev := solveBudgetFault(t, res)
	if berr.Kind != "solves" {
		t.Fatalf("Kind = %q, want solves", berr.Kind)
	}
	if berr.Limit != 40 || berr.Used <= berr.Limit {
		t.Errorf("Used/Limit = %d/%d, want Used > Limit = 40", berr.Used, berr.Limit)
	}
	if !strings.Contains(ev.Detail, "solve budget") || !strings.Contains(berr.Error(), "solve budget") {
		t.Errorf("fault %q does not name the solve budget", ev.Detail)
	}
	// The refused frame performed none of its solves: the partial result
	// never exceeds its grant.
	if res.TotalSolves > 40 {
		t.Errorf("TotalSolves = %d exceeds the grant of 40", res.TotalSolves)
	}
	if res.TotalSolves == 0 {
		t.Error("no solves performed at all; the budget should admit the first frame")
	}
}

func TestSolveBudgetTrips(t *testing.T) {
	want := ua741Profile()
	ev := interp.FromPoly("ua741-like", want, 49)
	res, err := Generate(ev, Config{InitFScale: 1e8, MaxSolves: 40})
	if err != nil {
		t.Fatalf("solve-budget exhaustion must degrade, got %v", err)
	}
	checkSolveBudgetDegraded(t, res)
}

func TestDegradeOnBudgetYieldsLabeledPartial(t *testing.T) {
	want := ua741Profile()
	ev := interp.FromPoly("ua741-like", want, 49)
	res, err := Generate(ev, Config{InitFScale: 1e8, MaxSolves: 40})
	if err != nil {
		t.Fatalf("solve-budget exhaustion must degrade, got %v", err)
	}
	checkSolveBudgetDegraded(t, res)
	if n := len(res.Faults()); n != 1 {
		t.Errorf("%d fault events, want only the budget trip", n)
	}
	unknown := 0
	for _, c := range res.Coeffs {
		if c.Status == Unknown {
			unknown++
		}
	}
	if unknown == 0 {
		t.Error("budget-degraded run resolved everything; the trip should leave coefficients Unknown")
	}
}

// TestDegradeOnBudgetDoesNotMaskOtherFailures: a solve budget degrades
// only its own exhaustion. A frame failure, a stall or a divergence
// under a generous MaxSolves still surfaces as its typed error.
func TestDegradeOnBudgetDoesNotMaskOtherFailures(t *testing.T) {
	nan := interp.Evaluator{
		Name: "nan", M: 2, OrderBound: 3,
		Eval: func(s complex128, f, g float64) xmath.XComplex {
			return xmath.CNaN()
		},
	}
	want := ua741Profile()
	for _, tc := range []struct {
		name   string
		ev     interp.Evaluator
		cfg    Config
		target error
	}{
		{"frame failure", nan, Config{}, ErrFrameFailed},
		{"stall", stuckEvaluator(want, 49), Config{InitFScale: 1e8, InitGScale: 1, StallLimit: 50, WatchdogStall: 3}, ErrStall},
		{"divergence", interp.FromPoly("drift", want, 49), Config{InitFScale: 1e8, InitGScale: 1, MaxScaleDriftLog10: 0.001}, ErrScaleDivergence},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.MaxSolves = 1 << 30
			_, err := Generate(tc.ev, tc.cfg)
			if !errors.Is(err, tc.target) {
				t.Fatalf("error %v does not match %v", err, tc.target)
			}
		})
	}
}

func TestBudgetsDoNotPerturbGeneration(t *testing.T) {
	want := ua741Profile()
	ev := interp.FromPoly("ua741-like", want, 49)
	free, err := Generate(ev, Config{InitFScale: 1e8})
	if err != nil {
		t.Fatal(err)
	}
	granted, err := Generate(ev, Config{InitFScale: 1e8, MaxSolves: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if !CoefficientsEqual(free.Coeffs, granted.Coeffs) {
		t.Error("a generous budget perturbed the generated coefficients")
	}
	if free.TotalSolves != granted.TotalSolves {
		t.Errorf("solve counts differ: %d vs %d", free.TotalSolves, granted.TotalSolves)
	}
	if granted.Degraded() {
		t.Error("a generous budget degraded the result")
	}
}

func TestWarmReplayHonorsSolveBudget(t *testing.T) {
	want := ua741Profile()
	ev := interp.FromPoly("ua741-like", want, 49)
	cold, err := Generate(ev, Config{InitFScale: 1e8})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Generate(ev, Config{
		InitFScale: 1e8, MaxSolves: 40,
		WarmStart: &WarmStart{Num: cold.Schedule()},
	})
	if err != nil {
		t.Fatalf("budget trip mid-replay should degrade, got %v", err)
	}
	checkSolveBudgetDegraded(t, warm)
	if !warm.WarmStarted {
		t.Errorf("budget trip mid-replay fell back to a cold start (%q)", warm.ColdFallback())
	}
}
