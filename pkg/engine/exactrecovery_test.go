package engine_test

import (
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/pkg/engine"
)

// TestExactRecoveryUpgradesBiquad pins the recovery pass on the biquad
// fixture: certified coefficients whose bars contain the oracle's values
// come back as exact-tier values that reproduce the oracle's rendering
// bit for bit.
func TestExactRecoveryUpgradesBiquad(t *testing.T) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	in, out := circuits.BiquadNodes()
	ckt := circuits.Biquad()
	spec := engine.Spec{Kind: "vgain", In: in, Out: out}
	resp, err := eng.Generate(t.Context(), engine.Request{
		Circuit: ckt, Spec: spec,
		Options: &engine.Options{ExactRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}

	oracle, err := engine.New(engine.Config{Backend: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	of, err := oracle.Formulate(ckt, spec)
	if err != nil {
		t.Fatal(err)
	}

	exactCount := 0
	for _, pair := range []struct {
		r    *engine.Result
		want engine.Poly
	}{{resp.Num, of.ExactNum}, {resp.Den, of.ExactDen}} {
		r := pair.r
		if got := r.Quality.CountEvents(engine.EventExactRecovery); got != 1 {
			t.Fatalf("%s: %d exact-recovery events, want 1", r.Name, got)
		}
		for _, ev := range r.Quality.Events {
			if ev.Kind == engine.EventExactRecovery && strings.HasPrefix(ev.Detail, "skipped") {
				t.Fatalf("%s: recovery pass skipped: %s", r.Name, ev.Detail)
			}
		}
		for i, bar := range r.Quality.Coefficients {
			if bar.Tier != engine.TierExact {
				continue
			}
			exactCount++
			c := r.Coeffs[i]
			if bar.RelError != 0 {
				t.Errorf("%s s^%d: exact tier with error bar %g", r.Name, i, bar.RelError)
			}
			if c.Status != engine.Valid {
				continue
			}
			if i < len(pair.want) && c.Value != pair.want[i] {
				t.Errorf("%s s^%d: exact-tier value %v differs from oracle rendering %v",
					r.Name, i, c.Value, pair.want[i])
			}
		}
	}
	if exactCount == 0 {
		t.Fatal("recovery pass upgraded no coefficient to the exact tier")
	}
	if resp.Tier() < engine.TierCertified {
		t.Errorf("biquad with recovery graded %s, want at least certified", resp.Tier())
	}
}

// TestExactRecoverySkipsLargeCircuit pins the size gate: beyond the
// oracle cap the pass must record a skip event and leave the result
// untouched rather than stall the request on exponential elimination.
func TestExactRecoverySkipsLargeCircuit(t *testing.T) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ckt := circuits.RCLadder(20, 1e3, 1e-9)
	resp, err := eng.Generate(t.Context(), engine.Request{
		Circuit: ckt,
		Spec:    engine.Spec{Kind: "vgain", In: "in", Out: circuits.RCLadderOut(20)},
		Options: &engine.Options{ExactRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*engine.Result{resp.Num, resp.Den} {
		found := false
		for _, ev := range r.Quality.Events {
			if ev.Kind == engine.EventExactRecovery {
				found = true
				if !strings.HasPrefix(ev.Detail, "skipped") {
					t.Errorf("%s: oversized circuit not skipped: %s", r.Name, ev.Detail)
				}
			}
		}
		if !found {
			t.Errorf("%s: no exact-recovery event recorded", r.Name)
		}
		for i, bar := range r.Quality.Coefficients {
			if bar.Tier == engine.TierExact && !r.Coeffs[i].Value.Zero() {
				t.Errorf("%s s^%d: exact tier without an oracle run", r.Name, i)
			}
		}
	}
}

// TestExactRecoveryOffByDefault: without the opt-in the pass must not
// run — no recovery events, no exact tiers beyond structural zeros.
func TestExactRecoveryOffByDefault(t *testing.T) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	in, out := circuits.BiquadNodes()
	resp, err := eng.Generate(t.Context(), engine.Request{
		Circuit: circuits.Biquad(),
		Spec:    engine.Spec{Kind: "vgain", In: in, Out: out},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*engine.Result{resp.Num, resp.Den} {
		if n := r.Quality.CountEvents(engine.EventExactRecovery); n != 0 {
			t.Errorf("%s: %d exact-recovery events without opt-in", r.Name, n)
		}
	}
}
