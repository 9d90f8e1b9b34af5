package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/pkg/engine"
)

// uniqueLadder returns a ladder request whose first resistor value
// varies with i, so every i lands on a distinct content address.
func uniqueLadder(i int) GenerateRequest {
	n := strings.Replace(ladderNetlist(), "R1 in n1 1k", fmt.Sprintf("R1 in n1 %dk", i+1), 1)
	req := vgain(n, "in", "n40")
	req.Options = &OptionsJSON{MaxIterations: 300}
	return req
}

// TestShedQueueFullOverBurst: with one slot and a one-deep queue, a
// burst of distinct requests sheds the overflow with 503 + Retry-After
// while the admitted ones still answer 200. The slot is held through the
// admission layer until the overflow has been answered, so the burst
// meets a full server however fast a generation is.
func TestShedQueueFullOverBurst(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	if _, err := s.adm.acquire(time.Now().Add(time.Minute), func() bool { return false }, nil); err != nil {
		t.Fatal(err)
	}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(s.adm.release) }
	defer release()

	const burst = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := make(map[int]int)
	answered := make(chan struct{}, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := post(t, ts.URL, uniqueLadder(i))
			answered <- struct{}{}
			mu.Lock()
			defer mu.Unlock()
			statuses[resp.StatusCode]++
			if resp.StatusCode == http.StatusServiceUnavailable {
				ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
				if err != nil || ra < 1 {
					t.Errorf("shed without a usable Retry-After (%q): %s",
						resp.Header.Get("Retry-After"), raw)
				}
				var eb errorBody
				if json.Unmarshal(raw, &eb) != nil || eb.Kind != "shed" {
					t.Errorf("shed body kind = %q, want shed: %s", eb.Kind, raw)
				}
			}
		}(i)
	}
	// One request waits in the queue; the other burst−1 must be shed
	// while the slot is held.
	for range burst - 1 {
		select {
		case <-answered:
		case <-time.After(10 * time.Second):
			release()
			wg.Wait()
			t.Fatalf("fewer than %d of the burst answered while the slot was held: %v", burst-1, statuses)
		}
	}
	release()
	wg.Wait()

	if statuses[http.StatusOK] == 0 {
		t.Errorf("no request survived the burst: %v", statuses)
	}
	if statuses[http.StatusServiceUnavailable] == 0 {
		t.Errorf("no request was shed by a 1-slot/1-queue server under an %d-burst: %v", burst, statuses)
	}
	for code := range statuses {
		if code != http.StatusOK && code != http.StatusServiceUnavailable {
			t.Errorf("unexpected status %d in %v", code, statuses)
		}
	}
	st := s.Stats()
	if st.Admission.ShedsQueueFull == 0 {
		t.Errorf("admission stats recorded no queue-full sheds: %+v", st.Admission)
	}
	if got := statuses[http.StatusServiceUnavailable]; uint64(got) !=
		st.Admission.ShedsQueueFull+st.Admission.ShedsDeadline+st.Admission.ShedsDraining {
		t.Errorf("%d shed responses vs admission counters %+v", got, st.Admission)
	}
}

// TestShedDeadlineAware: a queued flight whose leader deadline cannot
// outlast the expected generation time is shed immediately rather than
// left to burn queue time into a guaranteed 504.
func TestShedDeadlineAware(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})

	// Occupy the only slot directly through the admission layer, so it
	// stays held for the whole test regardless of generation speed.
	if _, err := s.adm.acquire(time.Now().Add(time.Minute), func() bool { return false }, nil); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release()

	// 30ms deadline vs the 50ms pre-sample floor: hopeless, shed now.
	req := vgain(rcNetlist, "in", "n1")
	req.TimeoutMs = 30
	start := time.Now()
	resp, raw := post(t, ts.URL, req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("hopeless-deadline request: status %d, body %s", resp.StatusCode, raw)
	}
	// Generous bound so race-instrumented builds pass;
	// TestShedLatencyUnderOverload enforces the strict sub-10ms median.
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("shed took %v; sheds must answer immediately, not wait out the deadline", elapsed)
	}
	if s.Stats().Admission.ShedsDeadline == 0 {
		t.Error("deadline shed not counted")
	}
}

// TestShedLatencyUnderOverload: with the only slot held, hopeless
// requests are refused with 503 + Retry-After at a median well under
// 10ms over the wire — overload answers must cost nothing. The box is
// otherwise quiet here (the slot is held through the admission layer,
// no generation burns CPU), so the bound is tight without being flaky;
// the chaos harness re-checks the same contract at a looser bound on a
// deliberately saturated machine.
func TestShedLatencyUnderOverload(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})

	if _, err := s.adm.acquire(time.Now().Add(time.Minute), func() bool { return false }, nil); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release()

	req := vgain(rcNetlist, "in", "n1")
	req.TimeoutMs = 30 // below the 50ms pre-sample floor: hopeless
	lats := make([]time.Duration, 0, 21)
	for i := 0; i < 21; i++ {
		start := time.Now()
		resp, raw := post(t, ts.URL, req)
		lats = append(lats, time.Since(start))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("probe %d: status %d, body %s", i, resp.StatusCode, raw)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("probe %d: shed without Retry-After", i)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if median := lats[len(lats)/2]; median >= 10*time.Millisecond {
		t.Errorf("shed median %v over %d probes; sheds must answer in <10ms", median, len(lats))
	}
}

// TestDrainLifecycle: StartDrain sheds new generations (reason
// draining) and flips /healthz to 503, while cache hits keep serving.
// Close still terminates cleanly afterwards.
func TestDrainLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// Prefill the cache.
	if resp, raw := post(t, ts.URL, vgain(rcNetlist, "in", "n1")); resp.StatusCode != http.StatusOK {
		t.Fatalf("prefill: %d %s", resp.StatusCode, raw)
	}

	s.StartDrain()

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", hresp.StatusCode)
	}

	// Cache hits still answer: drain stops new work, not old answers.
	resp, _ := post(t, ts.URL, vgain(rcRespelled, "in", "n1"))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("cached answer during drain: status %d, X-Cache %q",
			resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	// New generations shed with the draining reason.
	resp, raw := post(t, ts.URL, vgainLadder())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("generation during drain: status %d, body %s", resp.StatusCode, raw)
	}
	var eb errorBody
	if json.Unmarshal(raw, &eb) != nil || !strings.Contains(eb.Error, "draining") {
		t.Errorf("drain shed body %s does not carry the draining reason", raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain shed without Retry-After")
	}
	if s.Stats().Admission.ShedsDraining == 0 {
		t.Error("draining shed not counted")
	}
}

// TestDrainShedsStreamingClient: a streaming request arriving during
// drain gets a terminal error event (NDJSON) with the shed taxonomy,
// not a dropped connection.
func TestDrainShedsStreamingClient(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.StartDrain()

	req := vgainLadder()
	req.Stream = "ndjson"
	resp, raw := post(t, ts.URL, req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("streaming drain arrival: status %d, body %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("streaming shed without Retry-After")
	}
	var eb errorBody
	if json.Unmarshal(raw, &eb) != nil || eb.Kind != "shed" {
		t.Errorf("streaming shed body = %s, want kind shed", raw)
	}
}

// TestBudgetDegradedServedNotCached: a server solve budget degrades the
// generation into a labeled partial 200 that is served to the caller
// but never cached — the next request regenerates.
func TestBudgetDegradedServedNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{SolveBudget: 2})

	for round := 1; round <= 2; round++ {
		resp, raw := post(t, ts.URL, vgain(rcNetlist, "in", "n1"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: budget exhaustion must degrade, not fail: %d %s",
				round, resp.StatusCode, raw)
		}
		if tier := resp.Header.Get("X-Quality-Tier"); tier != "degraded" {
			t.Errorf("round %d: X-Quality-Tier = %q, want degraded", round, tier)
		}
		if src := resp.Header.Get("X-Cache"); src != "miss" {
			t.Errorf("round %d: X-Cache = %q; budget-degraded results must never be cached", round, src)
		}
		var w engine.WireResponse
		if err := json.Unmarshal(raw, &w); err != nil {
			t.Fatalf("round %d: degraded body is not a wire response: %v", round, err)
		}
		if w.Tier != "degraded" {
			t.Errorf("round %d: body tier = %q, want degraded", round, w.Tier)
		}
	}
	st := s.Stats()
	if st.BudgetDegraded != 2 {
		t.Errorf("BudgetDegraded = %d, want 2 (one per round)", st.BudgetDegraded)
	}
	if st.Generations != 2 {
		t.Errorf("Generations = %d, want 2 — a cached budget-degraded result leaked", st.Generations)
	}
	if st.Cache.Entries != 0 {
		t.Errorf("cache holds %d entries after budget-degraded rounds, want 0", st.Cache.Entries)
	}
}

// TestBudgetRequestLimitRefuses: a request that exhausts its own
// max_iterations (a result setting) is refused with 422 iteration-budget
// whether or not the server runs a solve budget, even a non-binding one;
// only the server's solve budget degrades.
func TestBudgetRequestLimitRefuses(t *testing.T) {
	for _, cfg := range []Config{{}, {SolveBudget: 1 << 30}} {
		s, ts := newTestServer(t, cfg)
		req := vgainLadder()
		req.Options.MaxIterations = 1
		resp, raw := post(t, ts.URL, req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("SolveBudget %d: status = %d, want 422 (%s)", cfg.SolveBudget, resp.StatusCode, raw)
		}
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Kind != "iteration-budget" {
			t.Errorf("SolveBudget %d: kind = %q, want iteration-budget", cfg.SolveBudget, eb.Kind)
		}
		if st := s.Stats(); st.BudgetDegraded != 0 {
			t.Errorf("SolveBudget %d: BudgetDegraded = %d, want 0", cfg.SolveBudget, st.BudgetDegraded)
		}
	}
}

// TestBudgetsDoNotPerturbUnconstrainedResults: a generous solve budget
// leaves the generated coefficients byte-identical to an unbudgeted
// server's.
func TestBudgetsDoNotPerturbUnconstrainedResults(t *testing.T) {
	_, plain := newTestServer(t, Config{})
	_, budgeted := newTestServer(t, Config{SolveBudget: 1 << 30})
	_, rawPlain := post(t, plain.URL, vgain(rcNetlist, "in", "n1"))
	_, rawBudgeted := post(t, budgeted.URL, vgain(rcNetlist, "in", "n1"))
	var a, b engine.WireResponse
	if err := json.Unmarshal(rawPlain, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawBudgeted, &b); err != nil {
		t.Fatal(err)
	}
	if a.Tier != b.Tier || !bytes.Equal(mustJSON(t, a.Num), mustJSON(t, b.Num)) ||
		!bytes.Equal(mustJSON(t, a.Den), mustJSON(t, b.Den)) {
		t.Error("a generous budget changed the generated result")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestOversizedBodyIs413: a body over MaxBodyBytes answers 413 with the
// body-too-large kind as soon as the limit is crossed.
func TestOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1 << 10})
	req := vgain(rcNetlist+strings.Repeat("* padding comment\n", 200), "in", "n1")
	resp, raw := post(t, ts.URL, req)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", resp.StatusCode, raw)
	}
	var eb errorBody
	if json.Unmarshal(raw, &eb) != nil || eb.Kind != "body-too-large" {
		t.Errorf("413 body = %s, want kind body-too-large", raw)
	}
}

// TestDiskCacheAcrossRestart pins the content-address contract across
// processes, nodal and MNA fixtures alike: two fresh servers' misses
// for one key give byte-identical bodies, and a restarted server serves
// those same bytes from the persistent tier (X-Cache: disk) with zero
// generations, then from memory.
func TestDiskCacheAcrossRestart(t *testing.T) {
	format := func(c *circuit.Circuit) string {
		src, err := netlist.FormatString(c)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	biqIn, biqOut := circuits.BiquadNodes()
	uaInp, uaInn, uaOut := circuits.UA741Inputs()
	for _, tc := range []struct {
		name string
		req  GenerateRequest
		// respelled, when set, is the netlist the restarted server is
		// asked for: same content address, different text.
		respelled string
	}{
		{"rc", vgain(rcNetlist, "in", "n1"), rcRespelled},
		{"biquad", vgain(format(circuits.Biquad()), biqIn, biqOut), ""},
		{"ladder40", vgainLadder(), ""},
		{"ua741", GenerateRequest{Netlist: format(circuits.UA741()),
			Spec: SpecJSON{Kind: "diffgain", In: uaInp, Inn: uaInn, Out: uaOut}}, ""},
		{"lc5", GenerateRequest{Netlist: format(circuits.LCLadder(5, 50, 1e6)),
			Spec: SpecJSON{Kind: "mna", In: "vin", Out: "out"}}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			generate := func(cfg Config) []byte {
				t.Helper()
				s, ts := newTestServer(t, cfg)
				defer s.Close()
				defer ts.Close()
				resp, raw := post(t, ts.URL, tc.req)
				if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
					t.Fatalf("fresh server: status %d, X-Cache %q, want a miss: %s",
						resp.StatusCode, resp.Header.Get("X-Cache"), raw)
				}
				if st := s.Stats(); st.Generations != 1 {
					t.Fatalf("fresh server ran %d generations, want 1", st.Generations)
				}
				return raw
			}
			dir := t.TempDir()
			rawA := generate(Config{})
			rawB := generate(Config{CacheDir: dir})
			if !bytes.Equal(rawA, rawB) {
				t.Fatalf("two misses of one key differ (%d vs %d bytes)", len(rawA), len(rawB))
			}

			s, ts := newTestServer(t, Config{CacheDir: dir})
			req := tc.req
			if tc.respelled != "" {
				req.Netlist = tc.respelled
			}
			resp, rawDisk := post(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "disk" {
				t.Fatalf("restarted server: status %d, X-Cache %q, want disk hit",
					resp.StatusCode, resp.Header.Get("X-Cache"))
			}
			if !bytes.Equal(rawDisk, rawB) {
				t.Error("disk tier serves bytes other than the generated body")
			}
			resp, rawHot := post(t, ts.URL, tc.req)
			if resp.Header.Get("X-Cache") != "hit" {
				t.Errorf("second read: X-Cache %q, want memory hit after disk promotion",
					resp.Header.Get("X-Cache"))
			}
			if !bytes.Equal(rawDisk, rawHot) {
				t.Error("disk and memory tiers disagree byte-for-byte")
			}
			if st := s.Stats(); st.Generations != 0 {
				t.Errorf("restarted server ran %d generations, want 0 (disk tier should answer)", st.Generations)
			}
		})
	}
}

// TestDiskCacheQuarantinesCorruption: a torn disk entry is detected by
// its content-hash frame, quarantined aside (never deleted, never
// served) and regenerated.
func TestDiskCacheQuarantinesCorruption(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := newTestServer(t, Config{CacheDir: dir})
	_, rawGood := post(t, ts1.URL, vgain(rcNetlist, "in", "n1"))
	ts1.Close()
	s1.Close()

	// Tear every live entry, as a crash mid-write without the
	// temp+rename discipline would.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var torn int
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), blobstore.Ext) {
			continue
		}
		p := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		torn++
	}
	if torn != 1 {
		t.Fatalf("tore %d entries, want exactly 1", torn)
	}

	s2, ts2 := newTestServer(t, Config{CacheDir: dir})
	resp, rawRegen := post(t, ts2.URL, vgain(rcNetlist, "in", "n1"))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("corrupt entry: status %d, X-Cache %q, want regeneration",
			resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(rawGood, rawRegen) {
		t.Error("regenerated body differs from the original (determinism broken)")
	}
	st := s2.Stats()
	if st.DiskCache.Quarantines != 1 {
		t.Errorf("disk quarantines = %d, want 1", st.DiskCache.Quarantines)
	}
	// The quarantined bytes survive on disk; the offline verifier sees a
	// clean store (the rewritten entry) with no corruption in the
	// serving path.
	ok, corrupt, err := blobstore.Verify(nil, dir)
	if err != nil || ok != 1 || corrupt != 0 {
		t.Errorf("blobstore.Verify = (%d ok, %d corrupt, %v), want (1, 0, nil)", ok, corrupt, err)
	}
	quarantined := 0
	ents, _ = os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), ".quarantined-") {
			quarantined++
		}
	}
	if quarantined != 1 {
		t.Errorf("quarantined files on disk = %d, want 1 (rename, never delete)", quarantined)
	}
}

// TestDiskCacheServesParentFormat: a result-cache entry spelled
// literally in the on-disk format earlier builds wrote —
// "sha256:<lowercase hex>\n" + body — is served from disk, so existing
// -cache-dir directories keep serving across the upgrade.
func TestDiskCacheServesParentFormat(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{CacheDir: dir})
	_, body := post(t, ts1.URL, vgain(rcNetlist, "in", "n1"))
	ts1.Close()
	s1.Close()
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("cache dir holds %d entries (%v), want 1", len(ents), err)
	}
	name := ents[0].Name()
	literal := []byte(fmt.Sprintf("sha256:%x\n%s", sha256.Sum256(body), body))
	if written, _ := os.ReadFile(filepath.Join(dir, name)); !bytes.Equal(written, literal) {
		t.Error("written entry differs from the literal framed format")
	}

	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, name), literal, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{CacheDir: old})
	resp, raw := post(t, ts2.URL, vgain(rcNetlist, "in", "n1"))
	if resp.Header.Get("X-Cache") != "disk" || !bytes.Equal(raw, body) {
		t.Errorf("literal entry: X-Cache %q, body equal %v; want a byte-identical disk hit",
			resp.Header.Get("X-Cache"), bytes.Equal(raw, body))
	}
	if st := s2.Stats(); st.Generations != 0 || st.DiskCache.Quarantines != 0 {
		t.Errorf("literal entry: %d generations, %d quarantines, want 0 and 0",
			st.Generations, st.DiskCache.Quarantines)
	}
}

// TestScrubDiskCache: the offline scrub of a result-cache directory
// (blobstore.Scrub over .result.json, as the chaos harness runs it)
// quarantines a torn entry the same way the serving path would —
// rename aside, never delete — so a post-crash sweep leaves the store
// verifiably clean and the surviving entry still serves from disk.
func TestScrubDiskCache(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{CacheDir: dir})
	_, body := post(t, ts1.URL, vgain(rcNetlist, "in", "n1"))
	ts1.Close()
	s1.Close()
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("cache dir holds %d entries (%v), want 1", len(ents), err)
	}
	good, err := os.ReadFile(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bb"+blobstore.Ext), good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	ok, quarantined, err := blobstore.Scrub(nil, dir)
	if err != nil || ok != 1 || quarantined != 1 {
		t.Fatalf("blobstore.Scrub = (%d ok, %d quarantined, %v), want (1, 1, nil)", ok, quarantined, err)
	}
	ok, corrupt, err := blobstore.Verify(nil, dir)
	if err != nil || ok != 1 || corrupt != 0 {
		t.Fatalf("post-scrub blobstore.Verify = (%d, %d, %v), want (1, 0, nil)", ok, corrupt, err)
	}
	ents, _ = os.ReadDir(dir)
	var evidence int
	for _, e := range ents {
		if strings.Contains(e.Name(), ".quarantined-") {
			evidence++
		}
	}
	if evidence != 1 {
		t.Errorf("quarantine evidence files = %d, want 1 (rename, never delete)", evidence)
	}

	s2, ts2 := newTestServer(t, Config{CacheDir: dir})
	resp, raw := post(t, ts2.URL, vgain(rcNetlist, "in", "n1"))
	if resp.Header.Get("X-Cache") != "disk" || !bytes.Equal(raw, body) {
		t.Errorf("scrubbed store: X-Cache %q, body equal %v; want a byte-identical disk hit",
			resp.Header.Get("X-Cache"), bytes.Equal(raw, body))
	}
	if st := s2.Stats(); st.Generations != 0 {
		t.Errorf("scrubbed store ran %d generations, want 0", st.Generations)
	}
}

// TestDegradedResultsStayOffDisk: client-requested degraded results
// (allow_degraded) are memory-cacheable but never written through to
// the persistent tier.
func TestDegradedResultsStayOffDisk(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CacheDir: dir})
	req := vgain("sing\nR1 in n1 1k\nR2 n1 0 1k\n.end\n", "in", "nope")
	req.Options = &OptionsJSON{AllowDegraded: true}
	resp, _ := post(t, ts.URL, req)
	if resp.StatusCode == http.StatusOK && resp.Header.Get("X-Quality-Tier") == "degraded" {
		if st := s.Stats(); st.DiskCache.Writes != 0 {
			t.Errorf("degraded result written to disk (%d writes)", st.DiskCache.Writes)
		}
	}
}

// TestStreamDisconnectStorm is the ISSUE 10 disconnect-storm test: 100
// streaming clients join one shared flight and every one of them is
// canceled at a random point. The flight must survive its subscribers,
// fill the cache exactly once, and leak nothing.
func TestStreamDisconnectStorm(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	baseline := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(1700))

	req := vgainLadder()
	req.Stream = "ndjson"
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	const storm = 100
	delays := make([]time.Duration, storm)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(40)) * time.Millisecond
	}
	// A dedicated transport so the leak check below measures the server,
	// not idle keep-alive machinery in the shared default client.
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(delay time.Duration) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/generate", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := client.Do(hreq)
			if err != nil {
				return // canceled before headers; that is the point
			}
			defer resp.Body.Close()
			timer := time.AfterFunc(delay, cancel)
			defer timer.Stop()
			buf := bufio.NewReader(resp.Body)
			for {
				if _, err := buf.ReadString('\n'); err != nil {
					return
				}
			}
		}(delays[i])
	}
	wg.Wait()
	tr.CloseIdleConnections()

	// The abandoned flight still completes and fills the cache once.
	deadline := time.Now().Add(10 * time.Second)
	for s.cache.stats().Entries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("storm-abandoned flight never filled the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if g := s.Stats().Generations; g != 1 {
		t.Errorf("generations = %d, want 1 shared flight for the whole storm", g)
	}
	waitNoLeaks(t, baseline)
	s.Close()
}

// TestStatsGoldenWire pins the /v1/stats wire format: field order is
// declaration order and backends sort by name, so a fixed counter state
// marshals to fixed bytes.
func TestStatsGoldenWire(t *testing.T) {
	st := Stats{
		Since:    "2026-08-08T00:00:00Z",
		Draining: true,
		Cache:    CacheStats{Entries: 2, Bytes: 4096, Hits: 7, Misses: 3, Evictions: 1},
		DiskCache: DiskCacheStats{
			Hits: 5, Misses: 2, Writes: 4, Quarantines: 1,
		},
		Generations:        3,
		SingleflightShared: 9,
		Requests:           21,
		Inflight:           1,
		ServerErrors:       0,
		MaxConcurrent:      4,
		Admission: AdmissionStats{
			QueueDepth: 2, MaxQueue: 16, Admitted: 12,
			ShedsQueueFull: 3, ShedsDeadline: 2, ShedsDraining: 1,
			GenLatencyEWMAMs: 12.5,
			QueueWaitP50Ms:   0.25, QueueWaitP90Ms: 1.5, QueueWaitP99Ms: 3,
		},
		BudgetDegraded: 1,
		Tiers:          TierCounts{Exact: 1, Certified: 1, Numeric: 1, Degraded: 0},
		WorstRelError:  1.25e-9,
		Backends: []BackendStats{
			{Name: "mna", Generations: 1, Tiers: TierCounts{Numeric: 1}, WorstRelError: 1.25e-9},
			{Name: "nodal", Generations: 2, Tiers: TierCounts{Exact: 1, Certified: 1}},
		},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "stats_golden.json")
	want, err := os.ReadFile(golden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("golden file created; rerun the test")
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("stats wire drifted from golden:\n got: %s\nwant: %s", buf.Bytes(), want)
	}
}

// TestLiveStatsFieldOrder: a live server's stats document carries the
// keys in the declared wire order (spot checks around the new fields).
func TestLiveStatsFieldOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	order := []string{`"since"`, `"draining"`, `"cache"`, `"disk_cache"`, `"admission"`,
		`"budget_degraded"`, `"tiers"`, `"worst_rel_error"`, `"backends"`}
	last := -1
	for _, key := range order {
		i := bytes.Index(raw, []byte(key))
		if i < 0 {
			t.Fatalf("stats document missing %s: %s", key, raw)
		}
		if i < last {
			t.Errorf("stats key %s out of order", key)
		}
		last = i
	}
}
