package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/pkg/server"
)

func testService(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

func TestUsageErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"no url":          {},
		"bad flag":        {"-url", "http://x", "-nope"},
		"unknown fixture": {"-url", "http://x", "-fixtures", "warpcore"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%s: exit = %d, want 2 (%s)", name, code, errb.String())
		}
	}
}

func TestFixturesBuild(t *testing.T) {
	fxs, err := buildFixtures([]string{"biquad", "ladder40", "ua741"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fxs) != 3 {
		t.Fatalf("built %d fixtures", len(fxs))
	}
	for _, fx := range fxs {
		if fx.netlist == "" || fx.spec["kind"] == "" {
			t.Errorf("fixture %s is incomplete", fx.name)
		}
	}
	// Perturbed bodies must differ from pristine ones (distinct keys).
	a := requestBody(fxs[0], 0, false, 0)
	b := requestBody(fxs[0], 7, false, 0)
	if bytes.Equal(a, b) {
		t.Error("perturbation did not change the request body")
	}
}

func TestSteadyModeGatesPass(t *testing.T) {
	ts := testService(t)
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	code := run([]string{
		"-url", ts.URL,
		"-fixtures", "biquad",
		"-duration", "400ms",
		"-concurrency", "4",
		"-hot", "0.9",
		"-hot-keys", "2",
		"-stream", "0.2",
		"-min-hit-rate", "0.5",
		"-max-5xx", "0",
		"-max-degraded-rate", "0",
		"-json", jsonPath,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "steady" || rep.Requests == 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Status5xx != 0 {
		t.Errorf("%d unexpected 5xx", rep.Status5xx)
	}
	if rep.HotRequests > 0 && rep.HotHitRate < 0.5 {
		t.Errorf("hot hit rate %.3f below the gate the run supposedly passed", rep.HotHitRate)
	}
	// Every successful response carries a quality tier; a healthy biquad
	// workload must grade certified-or-better with no degraded results.
	tiered := 0
	for tier, n := range rep.Tiers {
		tiered += n
		if tier == "degraded" || tier == "numeric" {
			t.Errorf("clean workload reported %d %s responses", n, tier)
		}
	}
	if tiered == 0 {
		t.Error("report counted no quality tiers")
	}
	if rep.Degraded != 0 || rep.DegradedRate != 0 {
		t.Errorf("degraded accounting = %d (rate %.3f), want zero", rep.Degraded, rep.DegradedRate)
	}
}

// TestSummarizeTierAccounting pins the tier bookkeeping and the degraded
// rate the -max-degraded-rate gate reads, without a server in the loop.
func TestSummarizeTierAccounting(t *testing.T) {
	samples := []sample{
		{status: 200, tier: "certified"},
		{status: 200, tier: "exact"},
		{status: 200, tier: "degraded"},
		{status: 200, tier: "degraded", hot: true, source: "hit"},
		{status: 422, tier: ""},       // gate refusal: no tier counted
		{status: 500},                 // server error: no tier
		{err: os.ErrDeadlineExceeded}, // transport error: excluded entirely
	}
	rep := summarize("steady", samples, 0, serverStats{}, serverStats{})
	if rep.Tiers["certified"] != 1 || rep.Tiers["exact"] != 1 || rep.Tiers["degraded"] != 2 {
		t.Errorf("tier counts = %v", rep.Tiers)
	}
	if rep.Degraded != 2 {
		t.Errorf("Degraded = %d, want 2", rep.Degraded)
	}
	if rep.DegradedRate != 0.5 {
		t.Errorf("DegradedRate = %.3f, want 0.5 (2 of 4 tiered)", rep.DegradedRate)
	}
}

// TestSummarizeShedAccounting pins the overload taxonomy: a 503 with
// Retry-After is a shed (the contract working), not a 5xx failure, and
// a disk-tier answer is cache-effective for the hot-key gate.
func TestSummarizeShedAccounting(t *testing.T) {
	samples := []sample{
		{status: 503, shed: true},
		{status: 503, shed: true, hot: true},
		{status: 503}, // no Retry-After: an actual failure
		{status: 500},
		{status: 200, tier: "exact", hot: true, source: "disk"},
		{status: 200, tier: "exact", hot: true, source: "hit"},
		{status: 200, tier: "exact", hot: true, source: "miss"},
	}
	rep := summarize("steady", samples, 0, serverStats{}, serverStats{})
	if rep.Sheds != 2 {
		t.Errorf("Sheds = %d, want 2", rep.Sheds)
	}
	if rep.Status5xx != 2 {
		t.Errorf("Status5xx = %d, want 2 (bare 503 + 500; sheds excluded)", rep.Status5xx)
	}
	if rep.HotRequests != 4 {
		t.Errorf("HotRequests = %d, want 4", rep.HotRequests)
	}
	if got := rep.HotHitRate; got != 0.5 {
		t.Errorf("HotHitRate = %.3f, want 0.5 (disk and hit effective, miss and shed not)", got)
	}
}

// TestChaosGateCorruptCache: a corrupt result-cache entry still live
// after the final scrub fails the chaos gate on its own.
func TestChaosGateCorruptCache(t *testing.T) {
	var errb bytes.Buffer
	if code := (&chaosReport{OK200: 1}).gate(&errb); code != 0 {
		t.Fatalf("clean report: exit %d, want 0\n%s", code, errb.String())
	}
	if code := (&chaosReport{OK200: 1, CacheCorrupt: 1}).gate(&errb); code != 1 {
		t.Fatalf("one corrupt live entry: exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "corrupt result-cache entries") {
		t.Errorf("gate message does not name the result cache:\n%s", errb.String())
	}
}

// TestChaosModeEndToEnd builds the real refserve binary and runs two
// crash/restart cycles through the chaos harness — the same invariants
// CI gates on, at smoke scale.
func TestChaosModeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and crashes real server processes")
	}
	bin := filepath.Join(t.TempDir(), "refserve")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/refserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building refserve: %v\n%s", err, out)
	}
	jsonPath := filepath.Join(t.TempDir(), "chaos.json")
	var out, errb bytes.Buffer
	code := run([]string{
		"-chaos",
		"-chaos-bin", bin,
		"-chaos-cycles", "2",
		// The timing gate stays on in CI's dedicated chaos job; here the
		// box is saturated by the rest of the test suite, so a wall-clock
		// median would measure the scheduler, not the shed path.
		"-chaos-shed-p50-gate-ms", "0",
		"-chaos-dir", t.TempDir(),
		"-json", jsonPath,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("chaos exit = %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep chaosReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.DirtyExits != 0 || rep.Status5xx != 0 || rep.CacheCorrupt != 0 {
		t.Fatalf("chaos invariants violated: %+v", rep)
	}
	if rep.OK200 == 0 || rep.Requests == 0 {
		t.Fatalf("chaos never exercised the server: %+v", rep)
	}
}

// TestBurstModeDedupGate is the client side of the single-flight CI
// gate: a 32-way identical cold burst must cost exactly one generation.
func TestBurstModeDedupGate(t *testing.T) {
	ts := testService(t)
	var out, errb bytes.Buffer
	code := run([]string{
		"-url", ts.URL,
		"-fixtures", "biquad",
		"-burst", "32",
		"-expect-generations", "1",
		"-max-5xx", "0",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
}

func TestBurstGateFailsOnWrongExpectation(t *testing.T) {
	ts := testService(t)
	var out, errb bytes.Buffer
	code := run([]string{
		"-url", ts.URL,
		"-fixtures", "biquad",
		"-burst", "4",
		"-expect-generations", "4", // single-flight makes this 1, so the gate must trip
	}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (gate should fail)\nstderr: %s", code, errb.String())
	}
}

func TestSweepMode(t *testing.T) {
	ts := testService(t)
	jsonPath := filepath.Join(t.TempDir(), "sweep.json")
	var out, errb bytes.Buffer
	code := run([]string{
		"-url", ts.URL,
		"-fixtures", "biquad",
		"-sweep",
		"-sweep-max", "2",
		"-duration", "200ms",
		"-json", jsonPath,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	var rep report
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Levels) != 2 || rep.Knee == 0 {
		t.Errorf("sweep report = %+v, want 2 levels and a knee", rep)
	}
}
