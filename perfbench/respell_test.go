package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/pkg/engine"
)

// TestRespellingsShareOneKey is the property serve-mixed relies on: every
// spelling of a hot fixture is a different text with the same content
// key, for the untraced and the traced backend configuration alike.
func TestRespellingsShareOneKey(t *testing.T) {
	for _, backend := range []string{"", "perfbench-time:nodal"} {
		cfg := engine.Config{Backend: backend}
		for _, fx := range serveFixtures() {
			src, err := netlist.FormatString(fx.circuit)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{1, 2, 99} {
				texts := map[string]bool{}
				var want string
				for v := 0; v < 8; v++ {
					text, err := respell(src, v, seed)
					if err != nil {
						t.Fatal(err)
					}
					texts[text] = true
					body, err := requestBody(text, fx.spec)
					if err != nil {
						t.Fatal(err)
					}
					key, _, _, _, err := frontSteps(body, cfg)
					if err != nil {
						t.Fatalf("%s seed %d spelling %d: %v\n%s", fx.name, seed, v, err, text)
					}
					if v == 0 {
						want = key
					} else if key != want {
						t.Errorf("%s seed %d spelling %d: key %s, spelling 0 has %s\n%s", fx.name, seed, v, key, want, text)
					}
				}
				if len(texts) != 8 {
					t.Errorf("%s seed %d: %d distinct texts of 8 spellings", fx.name, seed, len(texts))
				}
			}
		}
	}
}

func TestRespellDeterministic(t *testing.T) {
	src, err := netlist.FormatString(serveFixtures()[0].circuit)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := respell(src, 3, 11)
	b, _ := respell(src, 3, 11)
	c, _ := respell(src, 3, 12)
	if a != b {
		t.Error("same spelling and seed give different texts")
	}
	if a == c {
		t.Error("different seeds give the same text")
	}
	if got, _ := respell(src, 0, 11); got != src {
		t.Error("spelling 0 is not the source text")
	}
}

func TestValueSpellingsAreExact(t *testing.T) {
	for _, tok := range []string{"1k", "2.2k", "62.8319u", "3.1831meg", "20f", "1p", "27", "0.5"} {
		want, err := netlist.ParseValue(tok)
		if err != nil {
			t.Fatal(err)
		}
		alts, err := valueSpellings(tok, "ohm")
		if err != nil {
			t.Fatal(err)
		}
		if len(alts) < 3 {
			t.Errorf("%s: only %d spellings: %v", tok, len(alts), alts)
		}
		for _, a := range alts {
			got, err := netlist.ParseValue(a)
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: spelling %q parses to %v (%v), want %v", tok, a, got, err, want)
			}
		}
	}
}

func TestRespellRefusesControlledSources(t *testing.T) {
	src := "t\nV1 a 0 1\nF1 b 0 V1 2\nR1 b 0 1k\n.end\n"
	if _, err := respell(src, 1, 1); err == nil || !strings.Contains(err.Error(), "names another element") {
		t.Errorf("respell of an F card: err = %v", err)
	}
}
