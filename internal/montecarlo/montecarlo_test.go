package montecarlo

import (
	"math"
	"testing"

	"repro/internal/bode"
	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/pkg/engine"
)

func rcCircuit() *circuit.Circuit {
	c := circuit.New("rc")
	c.AddG("g1", "in", "out", 1e-3).AddC("c1", "out", "0", 1e-9)
	return c
}

func TestZeroToleranceZeroSpread(t *testing.T) {
	freqs := bode.LogSpace(1e3, 1e7, 9)
	st, err := Run(rcCircuit(), engine.Spec{Kind: "vgain", In: "in", Out: "out"}, freqs,
		Config{Samples: 20, Tolerance: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != 20 || st.Failures != 0 {
		t.Fatalf("samples %d failures %d", st.Samples, st.Failures)
	}
	spread, _ := st.WorstSpreadDB()
	if spread > 1e-9 {
		t.Errorf("spread %g with zero tolerance", spread)
	}
}

func TestSpreadGrowsWithTolerance(t *testing.T) {
	freqs := bode.LogSpace(1e3, 1e7, 9)
	spec := engine.Spec{Kind: "vgain", In: "in", Out: "out"}
	run := func(tol float64) float64 {
		st, err := Run(rcCircuit(), spec, freqs, Config{Samples: 60, Tolerance: tol, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		s, _ := st.WorstSpreadDB()
		return s
	}
	s5, s20 := run(0.05), run(0.20)
	if s20 <= s5 {
		t.Errorf("spread did not grow: ±5%% → %g dB, ±20%% → %g dB", s5, s20)
	}
	// An RC corner shifted by ±20% moves the response by roughly
	// 20·log10(1.2) ≈ 1.6 dB around the pole; the spread should be of
	// that order, not wildly off.
	if s20 < 0.5 || s20 > 6 {
		t.Errorf("±20%% spread %g dB implausible", s20)
	}
}

func TestDeterministicSeed(t *testing.T) {
	freqs := bode.LogSpace(1e4, 1e6, 5)
	spec := engine.Spec{Kind: "vgain", In: "in", Out: "out"}
	a, err := Run(rcCircuit(), spec, freqs, Config{Samples: 15, Tolerance: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(rcCircuit(), spec, freqs, Config{Samples: 15, Tolerance: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Magnitude {
		if a.Magnitude[i] != b.Magnitude[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a.Magnitude[i], b.Magnitude[i])
		}
	}
}

func TestQuantileOrderingInvariant(t *testing.T) {
	freqs := bode.LogSpace(1e3, 1e8, 13)
	st, err := Run(circuits.OTA(), engine.Spec{Kind: "diffgain", In: "inp", Inn: "inn", Out: "out"},
		freqs, Config{Samples: 25, Tolerance: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range st.Magnitude {
		if !(q.P05DB <= q.P50DB && q.P50DB <= q.P95DB) {
			t.Errorf("quantiles unordered at %g Hz: %+v", q.FreqHz, q)
		}
		if math.IsNaN(q.P50DB) {
			t.Errorf("NaN quantile at %g Hz", q.FreqHz)
		}
	}
}

func TestMedianNearNominal(t *testing.T) {
	// The median response under symmetric tolerance should track the
	// nominal response within a fraction of the spread.
	freqs := bode.LogSpace(1e4, 1e6, 5)
	spec := engine.Spec{Kind: "vgain", In: "in", Out: "out"}
	st, err := Run(rcCircuit(), spec, freqs, Config{Samples: 200, Tolerance: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	nom, err := Run(rcCircuit(), spec, freqs, Config{Samples: 1, Tolerance: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range freqs {
		d := math.Abs(st.Magnitude[i].P50DB - nom.Magnitude[i].P50DB)
		spread := st.Magnitude[i].P95DB - st.Magnitude[i].P05DB
		if d > spread/2+0.05 {
			t.Errorf("median off nominal by %g dB (spread %g) at %g Hz", d, spread, freqs[i])
		}
	}
}

func TestBadArgs(t *testing.T) {
	freqs := bode.LogSpace(1e3, 1e6, 3)
	if _, err := Run(rcCircuit(), engine.Spec{Kind: "vgain", In: "in", Out: "out"}, freqs,
		Config{Tolerance: -0.1}); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, err := Run(rcCircuit(), engine.Spec{Kind: "vgain", In: "in", Out: "zz"}, freqs,
		Config{Samples: 3}); err == nil {
		t.Error("all-failing spec should error")
	}
}

func TestQuantileHelper(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5}
	if q := quantile(data, 0.5); q != 3 {
		t.Errorf("median = %g", q)
	}
	if q := quantile(data, 0); q != 1 {
		t.Errorf("p0 = %g", q)
	}
	if q := quantile(data, 1); q != 5 {
		t.Errorf("p100 = %g", q)
	}
	if q := quantile([]float64{7}, 0.3); q != 7 {
		t.Errorf("single = %g", q)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty should be NaN")
	}
}
