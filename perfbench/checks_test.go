package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/pkg/engine"
)

// reference decodes a fresh copy of the committed µA741 reference.
func reference(t *testing.T) *engine.Response {
	t.Helper()
	_, num, den, err := engine.DecodeResponseJSON(ua741Reference)
	if err != nil {
		t.Fatal(err)
	}
	return &engine.Response{Num: num, Den: den}
}

func TestCheckReferenceAcceptsReference(t *testing.T) {
	if err := checkReference(reference(t), reference(t)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckReferenceRejectsCorruptCoefficient(t *testing.T) {
	for _, rel := range []float64{1e-4, -1e-3, 1} {
		got := reference(t)
		i := len(got.Den.Coeffs) / 2
		for got.Den.Coeffs[i].Status != engine.Valid {
			i++
		}
		got.Den.Coeffs[i].Value = got.Den.Coeffs[i].Value.MulFloat(1 + rel)
		if err := checkReference(got, reference(t)); err == nil {
			t.Errorf("denominator s^%d off by %g relative was accepted", i, rel)
		}
	}
	got := reference(t)
	got.Num.Coeffs[0].Status = engine.Unknown
	if err := checkReference(got, reference(t)); err == nil {
		t.Error("an Unknown coefficient was accepted")
	}
}

func TestCheckReferenceRejectsTierDrop(t *testing.T) {
	ref := reference(t)
	if ref.Tier() == engine.TierDegraded {
		t.Fatal("the reference itself is degraded")
	}
	got := reference(t)
	got.Num.Quality.Tier = ref.Tier() - 1
	if err := checkReference(got, ref); err == nil {
		t.Errorf("tier %v below the reference's %v was accepted", got.Tier(), ref.Tier())
	}
}

// TestReferenceIsCurrent regenerates the µA741 reference and requires
// σ-digit agreement with the committed one.
func TestReferenceIsCurrent(t *testing.T) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Generate(context.Background(), engine.Request{Circuit: circuits.UA741(), Spec: ua741Spec()})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReference(resp, reference(t)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckOracle(t *testing.T) {
	fx := serveFixtures()[0]
	src, err := netlist.FormatString(fx.circuit)
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.ParseNetlist(src, "biquad")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	spec := engine.Spec{Kind: fx.spec.Kind, In: fx.spec.In, Out: fx.spec.Out}
	resp, err := eng.Generate(context.Background(), engine.Request{Circuit: c, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	body, err := engine.EncodeResponseJSON(resp)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOracle(body, c, fx.spec.In, fx.spec.Out); err != nil {
		t.Fatalf("clean body rejected: %v", err)
	}
	resp.Den.Coeffs[1].Value = resp.Den.Coeffs[1].Value.MulFloat(1.001)
	bad, err := engine.EncodeResponseJSON(resp)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOracle(bad, c, fx.spec.In, fx.spec.Out); err == nil {
		t.Error("corrupted denominator accepted by the oracle check")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	for _, c := range []struct {
		label string
		json  []struct{ Name, Unit string }
		prog  []metric
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, layerMetrics}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", c.label, len(c.json), len(c.prog))
			continue
		}
		for i, m := range c.prog {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", c.label, i, c.json[i].Name, c.json[i].Unit, m.name, m.unit)
			}
		}
	}
}
