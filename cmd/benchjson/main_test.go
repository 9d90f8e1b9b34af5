package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
BenchmarkGenerateThreestageSerial-8   	       5	 226000 ns/op	        14.00 solves/op	        10.00 factorizations/op	  51000 eval-ns/op
BenchmarkGenerateLadder40Serial-8     	       2	9100000 ns/op	       120.0 solves/op	        90.00 factorizations/op
BenchmarkIDFTDirect49-8               	   10000	    7300 ns/op
PASS
`

func parseSample(t *testing.T, text string) []Entry {
	t.Helper()
	entries, err := parse(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func TestParseExtractsCounters(t *testing.T) {
	entries := parseSample(t, sampleBench)
	if len(entries) != 3 {
		t.Fatalf("parsed %d entries, want 3", len(entries))
	}
	byName := map[string]Entry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	ts := byName["BenchmarkGenerateThreestageSerial"]
	if ts.Extra["solves/op"] != 14 || ts.Extra["factorizations/op"] != 10 {
		t.Errorf("threestage counters wrong: %+v", ts.Extra)
	}
	if ts.NsOp != 226000 {
		t.Errorf("threestage ns/op = %v", ts.NsOp)
	}
}

func writeSnapshot(t *testing.T, dir, name string, entries []Entry) string {
	t.Helper()
	path := filepath.Join(dir, name)
	raw, err := json.Marshal(Snapshot{Note: "test", Benchmarks: entries})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFlagsCounterRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", []Entry{
		{Name: "BenchmarkA", N: 1, NsOp: 100, Extra: map[string]float64{"solves/op": 14, "eval-ns/op": 5000}},
		{Name: "BenchmarkB", N: 1, NsOp: 100, Extra: map[string]float64{"factorizations/op": 90}},
	})

	// Regressed solves/op must fail, even with a much better timing.
	worse := writeSnapshot(t, dir, "worse.json", []Entry{
		{Name: "BenchmarkA", N: 1, NsOp: 1, Extra: map[string]float64{"solves/op": 20, "eval-ns/op": 1}},
		{Name: "BenchmarkB", N: 1, NsOp: 1, Extra: map[string]float64{"factorizations/op": 90}},
	})
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", old, worse}, strings.NewReader(""), &out, &errOut); code != 1 {
		t.Fatalf("regressed compare exited %d, want 1 (stdout %q, stderr %q)", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "REGRESSION BenchmarkA solves/op") {
		t.Errorf("missing regression line in %q", out.String())
	}

	// Improved and equal counters pass; noisy timings are ignored.
	better := writeSnapshot(t, dir, "better.json", []Entry{
		{Name: "BenchmarkA", N: 1, NsOp: 9e9, Extra: map[string]float64{"solves/op": 8, "eval-ns/op": 9e9}},
		{Name: "BenchmarkB", N: 1, NsOp: 9e9, Extra: map[string]float64{"factorizations/op": 90}},
	})
	out.Reset()
	if code := run([]string{"-compare", old, better}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("improved compare exited %d, want 0 (stdout %q)", code, out.String())
	}
	if !strings.Contains(out.String(), "improved") {
		t.Errorf("missing improvement line in %q", out.String())
	}

	// Benchmarks absent from either side are simply not compared.
	partial := writeSnapshot(t, dir, "partial.json", []Entry{
		{Name: "BenchmarkC", N: 1, NsOp: 1, Extra: map[string]float64{"solves/op": 999}},
	})
	if code := run([]string{"-compare", old, partial}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("disjoint compare exited %d, want 0", code)
	}
}

func TestCompareArgumentValidation(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", "only-one.json"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Errorf("one-arg compare exited %d, want 2", code)
	}
	if code := run([]string{"-compare", "nope1.json", "nope2.json"}, strings.NewReader(""), &out, &errOut); code != 1 {
		t.Errorf("missing-file compare exited %d, want 1", code)
	}
}

func TestSnapshotAndCheckModes(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, strings.NewReader(sampleBench), &out, &errOut); code != 0 {
		t.Fatalf("snapshot mode exited %d (stderr %q)", code, errOut.String())
	}
	var snap Snapshot
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot output is not JSON: %v", err)
	}
	if len(snap.Benchmarks) != 3 {
		t.Fatalf("snapshot has %d benchmarks, want 3", len(snap.Benchmarks))
	}

	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := os.WriteFile(base, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-check", base}, strings.NewReader(sampleBench), &out, &errOut); code != 0 {
		t.Fatalf("check mode exited %d (stderr %q)", code, errOut.String())
	}

	// A run that lost a benchmark fails check mode.
	lost := strings.Replace(sampleBench, "BenchmarkIDFTDirect49-8               \t   10000\t    7300 ns/op\n", "", 1)
	errOut.Reset()
	if code := run([]string{"-check", base}, strings.NewReader(lost), &out, &errOut); code != 1 {
		t.Fatalf("lossy check exited %d, want 1 (stderr %q)", code, errOut.String())
	}
}

// TestCompareAllocsGate pins the hot-path allocation gate: allocs/op is
// compared (lower-is-better) on BenchmarkEvalBatch*,
// BenchmarkDetSparseUA741, BenchmarkDetPlanned*, BenchmarkDetLanesUA741,
// BenchmarkStructuralWindowUA741 and BenchmarkWireEncodeUA741 only, so
// an op that starts allocating more fails the gate while advisory
// allocation counts elsewhere stay ignored.
func TestCompareAllocsGate(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", []Entry{
		{Name: "BenchmarkDetSparseUA741", N: 1, NsOp: 90000, Extra: map[string]float64{
			"B/op": 0, "allocs/op": 0}},
		{Name: "BenchmarkEvalBatchBiquad", N: 1, NsOp: 6000, Extra: map[string]float64{
			"B/op": 0, "allocs/op": 0}},
		{Name: "BenchmarkDetPlannedLadder40", N: 1, NsOp: 4000, Extra: map[string]float64{
			"B/op": 0, "allocs/op": 0}},
		{Name: "BenchmarkDetLanesUA741", N: 1, NsOp: 150000, Extra: map[string]float64{
			"B/op": 0, "allocs/op": 0, "ns/point": 6000}},
		{Name: "BenchmarkIDFTDirect49", N: 1, NsOp: 7000, Extra: map[string]float64{
			"allocs/op": 3}},
		{Name: "BenchmarkStructuralWindowUA741", N: 1, NsOp: 30000, Extra: map[string]float64{
			"B/op": 7344, "allocs/op": 19}},
		{Name: "BenchmarkWireEncodeUA741", N: 1, NsOp: 180000, Extra: map[string]float64{
			"B/op": 40960, "allocs/op": 1}},
	})

	// A hot-path op that allocates again is a regression, even by one.
	leaky := writeSnapshot(t, dir, "leaky.json", []Entry{
		{Name: "BenchmarkDetSparseUA741", N: 1, NsOp: 90000, Extra: map[string]float64{
			"B/op": 48, "allocs/op": 1}},
		{Name: "BenchmarkEvalBatchBiquad", N: 1, NsOp: 6000, Extra: map[string]float64{
			"B/op": 64, "allocs/op": 1}},
		{Name: "BenchmarkDetPlannedLadder40", N: 1, NsOp: 4000, Extra: map[string]float64{
			"B/op": 32, "allocs/op": 1}},
		{Name: "BenchmarkDetLanesUA741", N: 1, NsOp: 150000, Extra: map[string]float64{
			"B/op": 16384, "allocs/op": 1, "ns/point": 6000}},
		{Name: "BenchmarkIDFTDirect49", N: 1, NsOp: 7000, Extra: map[string]float64{
			"allocs/op": 3}},
		{Name: "BenchmarkStructuralWindowUA741", N: 1, NsOp: 30000, Extra: map[string]float64{
			"B/op": 7400, "allocs/op": 20}},
		{Name: "BenchmarkWireEncodeUA741", N: 1, NsOp: 180000, Extra: map[string]float64{
			"B/op": 81920, "allocs/op": 2}},
	})
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", old, leaky}, strings.NewReader(""), &out, &errOut); code != 1 {
		t.Fatalf("leaky hot path exited %d, want 1 (stdout %q)", code, out.String())
	}
	for _, name := range []string{"BenchmarkEvalBatchBiquad", "BenchmarkDetSparseUA741", "BenchmarkDetPlannedLadder40", "BenchmarkDetLanesUA741", "BenchmarkStructuralWindowUA741", "BenchmarkWireEncodeUA741"} {
		if !strings.Contains(out.String(), "REGRESSION "+name+" allocs/op") {
			t.Errorf("missing %s allocs regression in %q", name, out.String())
		}
	}

	// Off-path allocation counts are advisory: a jump elsewhere passes.
	noisy := writeSnapshot(t, dir, "noisy.json", []Entry{
		{Name: "BenchmarkEvalBatchBiquad", N: 1, NsOp: 6000, Extra: map[string]float64{
			"B/op": 0, "allocs/op": 0}},
		{Name: "BenchmarkIDFTDirect49", N: 1, NsOp: 7000, Extra: map[string]float64{
			"allocs/op": 30}},
	})
	out.Reset()
	if code := run([]string{"-compare", old, noisy}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("off-path alloc noise exited %d, want 0 (stdout %q)", code, out.String())
	}
}

// TestCompareWarmStartDirection pins the inverted gate: fewer warm
// starts (or more cold fallbacks / solves per point) is the regression.
func TestCompareWarmStartDirection(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", []Entry{
		{Name: "BenchmarkGenerateBatchLadder40Warm", N: 1, NsOp: 100, Extra: map[string]float64{
			"warm-starts/op": 15, "cold-fallbacks/op": 0, "solves/point": 633.6}},
	})

	lostWarm := writeSnapshot(t, dir, "lost.json", []Entry{
		{Name: "BenchmarkGenerateBatchLadder40Warm", N: 1, NsOp: 100, Extra: map[string]float64{
			"warm-starts/op": 12, "cold-fallbacks/op": 0, "solves/point": 633.6}},
	})
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", old, lostWarm}, strings.NewReader(""), &out, &errOut); code != 1 {
		t.Fatalf("lost warm starts exited %d, want 1 (stdout %q)", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION BenchmarkGenerateBatchLadder40Warm warm-starts/op") {
		t.Errorf("missing warm-start regression in %q", out.String())
	}

	moreFallbacks := writeSnapshot(t, dir, "fallbacks.json", []Entry{
		{Name: "BenchmarkGenerateBatchLadder40Warm", N: 1, NsOp: 100, Extra: map[string]float64{
			"warm-starts/op": 15, "cold-fallbacks/op": 2, "solves/point": 700}},
	})
	out.Reset()
	if code := run([]string{"-compare", old, moreFallbacks}, strings.NewReader(""), &out, &errOut); code != 1 {
		t.Fatalf("fallback regression exited %d, want 1 (stdout %q)", code, out.String())
	}
	for _, want := range []string{"cold-fallbacks/op", "solves/point"} {
		if !strings.Contains(out.String(), "REGRESSION BenchmarkGenerateBatchLadder40Warm "+want) {
			t.Errorf("missing %s regression in %q", want, out.String())
		}
	}

	moreWarm := writeSnapshot(t, dir, "better.json", []Entry{
		{Name: "BenchmarkGenerateBatchLadder40Warm", N: 1, NsOp: 100, Extra: map[string]float64{
			"warm-starts/op": 16, "cold-fallbacks/op": 0, "solves/point": 600}},
	})
	out.Reset()
	if code := run([]string{"-compare", old, moreWarm}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("improved sweep exited %d, want 0 (stdout %q)", code, out.String())
	}
}
