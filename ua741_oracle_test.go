package repro_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/poly"
	"repro/pkg/engine"
)

// TestUA741AgainstExactOracle holds the paper's own circuit, at full
// order, to its exact coefficients: the µA741 transimpedance and
// differential gain as the default engine generates them, against the
// exact backend's determinants.
//
// Beyond checkAgainstExact's coefficient checks, the exact zeros must be
// exactly the structural zeros listed below, and check.ErrorBars runs
// on every certified bar. One bar is known to be too tight: the
// diffgain denominator's s⁰ claims 1.0e-10, but the coefficient is off
// by 1.43e-10. Tightening the bar model moves wire bytes and so waits
// for a refkey bump; until then any other violation, or this one's
// disappearance, fails the test.
func TestUA741AgainstExactOracle(t *testing.T) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := engine.New(engine.Config{Backend: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	c := circuits.UA741()
	inp, inn, out := circuits.UA741Inputs()
	for _, tc := range []struct {
		spec               engine.Spec
		numZeros, denZeros []int
		knownBarViolations []string // "<polynomial> s^<i>"
	}{
		{
			spec:     engine.Spec{Kind: "transz", In: inp, Out: out},
			numZeros: []int{46, 47, 48}, denZeros: []int{48, 49},
		},
		{
			spec:     engine.Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out},
			numZeros: []int{46, 47, 48}, denZeros: []int{48},
			knownBarViolations: []string{"denominator s^0"},
		},
	} {
		kind := tc.spec.Kind
		resp, err := eng.Generate(context.Background(), engine.Request{Circuit: c, Spec: tc.spec})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		ex, err := oracle.Formulate(c, tc.spec)
		if err != nil {
			t.Fatalf("%s oracle: %v", kind, err)
		}
		var barViolations []string
		for i, res := range []*core.Result{resp.Num, resp.Den} {
			want := []poly.XPoly{ex.ExactNum, ex.ExactDen}[i]
			label := kind + " " + res.Name
			checkAgainstExact(t, label, res, want)

			var zeros []int
			for k, w := range want {
				if w.Zero() {
					zeros = append(zeros, k)
				}
			}
			for k := len(want); k < len(res.Coeffs); k++ {
				zeros = append(zeros, k)
			}
			if wantZeros := [][]int{tc.numZeros, tc.denZeros}[i]; !slices.Equal(zeros, wantZeros) {
				t.Errorf("%s: exact zeros at %v, want %v", label, zeros, wantZeros)
			}
			for _, k := range zeros {
				if !res.Coeffs[k].Structural() {
					t.Errorf("%s s^%d: exact zero not marked structural", label, k)
				}
			}

			rep := &check.Report{}
			check.ErrorBars(res, want, rep)
			for _, v := range rep.Violations {
				barViolations = append(barViolations, strings.SplitN(v.Detail, ":", 2)[0])
				t.Logf("%s: %s", kind, v)
			}
			t.Logf("%s: %d bars checked, worst measured/claimed %.3g", label, rep.Checks, worstBarRatio(res, want))
		}
		if !slices.Equal(barViolations, tc.knownBarViolations) {
			t.Errorf("%s: certified bars violated at %q, want exactly %q", kind, barViolations, tc.knownBarViolations)
		}
	}
}

// worstBarRatio returns the largest ratio of measured relative error to
// claimed bar over the certified coefficients of res.
func worstBarRatio(res *core.Result, want poly.XPoly) float64 {
	worst := 0.0
	for i, cf := range res.Coeffs {
		bar := res.Quality.Coefficients[i]
		if cf.Status != core.Valid || bar.Tier != core.TierCertified || bar.RelError <= 0 || i >= len(want) || want[i].Zero() {
			continue
		}
		measured := cf.Value.Sub(want[i]).Abs().Div(want[i].Abs()).Float64()
		worst = max(worst, measured/bar.RelError)
	}
	return worst
}
