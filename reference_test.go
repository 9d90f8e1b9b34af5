package repro_test

import (
	"bytes"
	"context"
	"math"
	"os"
	"testing"

	"repro/internal/circuits"
	"repro/pkg/engine"
)

// TestUA741ReferenceIdentity ties a fresh µA741 generation to both
// committed references. testdata/ua741_diffgain.json is the current
// output byte for byte (the CI reference-identity gate compares the
// benchmark's --write-reference output with it). The benchmark's own
// perfbench/testdata/ua741_diffgain.json predates the structural degree
// window (it still carries evidence bounds on the four coefficients the
// window proves zero: numerator s^46..s^48, denominator s^48) and the
// one-sided directed frames (which move coefficient bits). Against it
// every one of the 98 coefficients must keep its status, every Valid
// value must agree to within 10^(−σ−1) relative — a tenth of the last
// certified digit; the one-sided frames moved them by at most 6.7e-8 —
// and every other coefficient must be bit-identical or a structural
// zero.
func TestUA741ReferenceIdentity(t *testing.T) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inp, inn, out := circuits.UA741Inputs()
	resp, err := eng.Generate(context.Background(), engine.Request{
		Circuit: circuits.UA741(),
		Spec:    engine.Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out},
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := engine.EncodeResponseJSON(resp)
	if err != nil {
		t.Fatal(err)
	}
	current, err := os.ReadFile("testdata/ua741_diffgain.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, current) {
		t.Errorf("fresh µA741 generation differs from testdata/ua741_diffgain.json (%d vs %d bytes)", len(raw), len(current))
	}

	bench, err := os.ReadFile("perfbench/testdata/ua741_diffgain.json")
	if err != nil {
		t.Fatal(err)
	}
	_, refNum, refDen, err := engine.DecodeResponseJSON(bench)
	if err != nil {
		t.Fatal(err)
	}
	_, num, den, err := engine.DecodeResponseJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	total, changed := 0, 0
	for _, p := range []struct{ got, ref *engine.Result }{{num, refNum}, {den, refDen}} {
		tol := math.Pow(10, float64(-1-p.ref.SigDigits))
		if len(p.got.Coeffs) != len(p.ref.Coeffs) {
			t.Fatalf("%s: %d coefficients, reference %d", p.got.Name, len(p.got.Coeffs), len(p.ref.Coeffs))
		}
		for i, g := range p.got.Coeffs {
			r := p.ref.Coeffs[i]
			total++
			switch {
			case g.Status != r.Status:
				t.Errorf("%s s^%d: status %v, reference %v", p.got.Name, i, g.Status, r.Status)
			case g.Status == engine.Valid:
				if !g.Value.ApproxEqual(r.Value, tol) {
					t.Errorf("%s s^%d: value %v, reference %v (not within 10^(−σ−1))", p.got.Name, i, g.Value, r.Value)
				}
			case g != r:
				changed++
				if !g.Structural() {
					t.Errorf("%s s^%d: %+v changed from reference %+v without being a structural zero", p.got.Name, i, g, r)
				}
			}
		}
	}
	if total != 98 || changed != 4 {
		t.Errorf("compared %d coefficients with %d changed, want 98 with 4 (the structural zeros)", total, changed)
	}
}
