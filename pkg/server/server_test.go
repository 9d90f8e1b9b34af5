package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/pkg/engine"
)

const rcNetlist = "rc\nR1 in n1 1k\nC1 n1 0 1n\nRl n1 0 1meg\n.end\n"

// rcRespelled is the same circuit with reordered cards, renamed
// elements, an aliased ground and respelled values — same address.
const rcRespelled = "respelled\nCload n1 gnd 1000p\nRs in n1 1000 ; series\nRload n1 0 1MEG\n.end\n"

// ladderNetlist builds a 40-section RC ladder source: slow enough
// (tens of milliseconds) that concurrency tests reliably overlap it.
func ladderNetlist() string {
	var b strings.Builder
	b.WriteString("ladder\n")
	prev := "in"
	for i := 1; i <= 40; i++ {
		fmt.Fprintf(&b, "R%d %s n%d 1k\nC%d n%d 0 1n\n", i, prev, i, i, i)
		prev = fmt.Sprintf("n%d", i)
	}
	fmt.Fprintf(&b, "Rl %s 0 1meg\n.end\n", prev)
	return b.String()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, req GenerateRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func vgain(netlist, in, out string) GenerateRequest {
	return GenerateRequest{Netlist: netlist, Spec: SpecJSON{Kind: "vgain", In: in, Out: out}}
}

// vgainLadder carries the iteration budget a 40-section ladder needs.
func vgainLadder() GenerateRequest {
	req := vgain(ladderNetlist(), "in", "n40")
	req.Options = &OptionsJSON{MaxIterations: 300}
	return req
}

func TestGenerateMissThenHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, raw := post(t, ts.URL, vgain(rcNetlist, "in", "n1"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	var w engine.WireResponse
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	if w.Num == nil || w.Den == nil || w.Tier == engine.TierDegraded.String() {
		t.Fatalf("malformed wire response: %s", raw)
	}
	if got := resp.Header.Get("X-Quality-Tier"); got != w.Tier {
		t.Errorf("X-Quality-Tier = %q, body tier %q", got, w.Tier)
	}

	// The respelled netlist must land on the same content address and
	// answer byte-identically from the cache.
	resp2, raw2 := post(t, ts.URL, vgain(rcRespelled, "in", "n1"))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, raw2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("respelled request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("cache hit body differs from the generated body")
	}

	st := s.Stats()
	if st.Generations != 1 {
		t.Errorf("generations = %d, want 1", st.Generations)
	}
	if st.Cache.Hits != 1 || st.Cache.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 entry", st.Cache)
	}
}

// TestSingleFlightBurst is the CI-gated dedup invariant: a 64-way burst
// of identical cold requests costs exactly one generation.
func TestSingleFlightBurst(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := vgainLadder()

	const burst = 64
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for range burst {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := post(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, raw)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	if st.Generations != 1 {
		t.Errorf("burst of %d identical requests ran %d generations, want exactly 1", burst, st.Generations)
	}
	if st.SingleflightShared+st.Cache.Hits != burst-1 {
		t.Errorf("shared (%d) + hits (%d) should cover the %d followers",
			st.SingleflightShared, st.Cache.Hits, burst-1)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	validBody := `{"netlist":"t\nR1 a b 1k\nC1 b 0 1n\n.end\n","spec":{"kind":"vgain","in":"a","out":"b"}}`
	cases := []struct {
		name   string
		body   string
		status int
		kind   string
	}{
		{"malformed json", `{"netlist": `, http.StatusBadRequest, "bad-request"},
		{"empty netlist", `{"netlist":""}`, http.StatusBadRequest, "bad-request"},
		{"bad netlist", `{"netlist":"t\nR1 a\n.end\n"}`, http.StatusBadRequest, "bad-netlist"},
		{"bad stream mode", `{"netlist":"t\nR1 a 0 1k\n.end\n","spec":{"kind":"vgain","in":"a","out":"a"},"stream":"csv"}`,
			http.StatusBadRequest, "bad-request"},
		{"unknown spec kind", `{"netlist":"t\nR1 a 0 1k\nR2 a b 1k\nRl b 0 1k\n.end\n","spec":{"kind":"zgain","in":"a","out":"b"}}`,
			http.StatusUnprocessableEntity, "generation"},
		// A body is one object: whatever follows it would be ignored.
		{"second object", validBody + ` {"netlist":"junk"}`, http.StatusBadRequest, "bad-request"},
		{"trailing garbage", validBody + ` trailing garbage`, http.StatusBadRequest, "bad-request"},
		{"trailing bracket", validBody + `}`, http.StatusBadRequest, "bad-request"},
		{"trailing scalar", validBody + "\n0", http.StatusBadRequest, "bad-request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, raw)
			}
			var eb errorBody
			if err := json.Unmarshal(raw, &eb); err != nil {
				t.Fatalf("error body is not JSON: %s", raw)
			}
			if eb.Kind != tc.kind {
				t.Errorf("kind = %q, want %q (%s)", eb.Kind, tc.kind, eb.Error)
			}
		})
	}
	// Trailing whitespace is not data: the same body with it is a 200.
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(validBody+" \r\n\t\n"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("valid body with trailing whitespace: status %d (%s)", resp.StatusCode, raw)
	}
}

func TestGenerationFailureIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := vgain(ladderNetlist(), "in", "n40")
	req.Options = &OptionsJSON{MaxIterations: 2}
	resp, raw := post(t, ts.URL, req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (%s)", resp.StatusCode, raw)
	}
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Kind != "iteration-budget" {
		t.Errorf("kind = %q, want iteration-budget", eb.Kind)
	}
}

func TestDegradedSurfaced(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := vgain(ladderNetlist(), "in", "n40")
	req.Options = &OptionsJSON{MaxIterations: 2, AllowDegraded: true}
	resp, raw := post(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%s)", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Quality-Tier"); got != engine.TierDegraded.String() {
		t.Errorf("X-Quality-Tier = %q, want degraded", got)
	}
	var w engine.WireResponse
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	if w.Tier != engine.TierDegraded.String() {
		t.Error("body does not mark the response degraded")
	}
	faults := 0
	for _, r := range []*engine.WireResult{w.Num, w.Den} {
		if r == nil {
			continue
		}
		for _, ev := range r.Events {
			if ev.Kind == engine.EventFault {
				faults++
			}
		}
	}
	if w.Num == nil || faults == 0 {
		t.Error("degraded response carries no fault events")
	}
}

// TestDeadlineDetachesWaiter pins the detach semantics: a request that
// times out answers 504, but the flight it started keeps running and
// fills the cache.
// slowBackend is a nodal backend whose every evaluator dispatch sleeps
// 5 ms (an injected-latency fault plan): a generation on it outlasts a
// 1 ms deadline no matter how few frames the circuit needs.
const slowBackend = "slow-dispatch:nodal"

func init() {
	engine.RegisterWrapper("slow-dispatch", func(inner engine.Backend) engine.Backend {
		return fault.New(inner, &fault.Plan{Latency: 5 * time.Millisecond})
	})
}

func TestDeadlineDetachesWaiter(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: engine.Config{Backend: slowBackend}})
	req := vgainLadder()
	req.TimeoutMs = 1

	resp, raw := post(t, ts.URL, req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", resp.StatusCode, raw)
	}

	// The detached flight must complete and land in the cache.
	deadline := time.Now().Add(10 * time.Second)
	for s.cache.stats().Entries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("detached flight never filled the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req.TimeoutMs = 0
	resp2, _ := post(t, ts.URL, req)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("post-detach request X-Cache = %q, want hit", got)
	}
	if st := s.Stats(); st.Generations != 1 {
		t.Errorf("generations = %d, want 1 (the detached flight)", st.Generations)
	}
}

type ndjsonEvent struct {
	Event     string                `json:"event"`
	Seq       int                   `json:"seq"`
	Iteration *engine.WireIteration `json:"iteration"`
	Cache     string                `json:"cache"`
	Result    json.RawMessage       `json:"result"`
	Status    int                   `json:"status"`
	Kind      string                `json:"kind"`
	Error     string                `json:"error"`
}

func readNDJSON(t *testing.T, r io.Reader) []ndjsonEvent {
	t.Helper()
	var evs []ndjsonEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev ndjsonEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

func TestStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := vgain(rcNetlist, "in", "n1")
	req.Stream = "ndjson"

	check := func(wantCache string) []ndjsonEvent {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("Content-Type = %q", ct)
		}
		evs := readNDJSON(t, resp.Body)
		if len(evs) < 2 {
			t.Fatalf("stream produced %d events, want iterations + result", len(evs))
		}
		for i, ev := range evs[:len(evs)-1] {
			if ev.Event != "iteration" || ev.Seq != i || ev.Iteration == nil {
				t.Fatalf("event %d = %+v, want contiguous iteration", i, ev)
			}
		}
		last := evs[len(evs)-1]
		if last.Event != "result" || last.Cache != wantCache || len(last.Result) == 0 {
			t.Fatalf("closing event = %+v, want result from %q", last, wantCache)
		}
		return evs
	}

	live := check("miss")
	replay := check("hit")
	if len(live) != len(replay) {
		t.Errorf("cache-hit replay produced %d events, live stream %d", len(replay), len(live))
	}
}

func TestStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(vgain(rcNetlist, "in", "n1"))
	hreq, _ := http.NewRequest("POST", ts.URL+"/v1/generate", bytes.NewReader(body))
	hreq.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("event: iteration\n")) || !bytes.Contains(raw, []byte("event: result\n")) {
		t.Errorf("SSE stream missing framing:\n%s", raw)
	}
}

// TestCanceledStreamNoLeak is the acceptance invariant: canceling a
// streaming request mid-flight leaks no goroutines — the subscriber
// detaches, the flight finishes on its own and the server drains clean.
func TestCanceledStreamNoLeak(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	baseline := runtime.NumGoroutine()

	req := vgainLadder()
	req.Stream = "ndjson"
	body, _ := json.Marshal(req)
	ctx, cancel := context.WithCancel(context.Background())
	hreq, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/generate", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	// Read one event to be sure the stream is established, then drop it.
	buf := bufio.NewReader(resp.Body)
	if _, err := buf.ReadString('\n'); err != nil {
		t.Logf("first event read: %v (flight may have finished first)", err)
	}
	cancel()
	resp.Body.Close()

	// The abandoned flight must still finish and cache its result.
	deadline := time.Now().Add(10 * time.Second)
	for s.cache.stats().Entries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight abandoned by its only subscriber never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	waitNoLeaks(t, baseline)
	s.Close()
}

func waitNoLeaks(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d at start, %d after settle window", baseline, runtime.NumGoroutine())
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.MaxConcurrent < 1 {
		t.Errorf("stats report MaxConcurrent = %d", st.MaxConcurrent)
	}
}

func TestCacheBounds(t *testing.T) {
	c := newCache(2, 0)
	mk := func(key string, n int) *entry {
		return &entry{key: key, body: make([]byte, n)}
	}
	c.put(mk("a", 10))
	c.put(mk("b", 10))
	c.put(mk("c", 10))
	if st := c.stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("entry bound: %+v", st)
	}
	if _, ok := c.get("a"); ok {
		t.Error("oldest entry survived the entry bound")
	}

	// Byte bound: "b" is refreshed by the hit above... get("a") missed,
	// so touch "b" explicitly, then push it over the byte budget.
	bc := newCache(0, 64)
	bc.put(mk("x", 30))
	bc.put(mk("y", 30))
	bc.get("x")
	bc.put(mk("z", 30))
	if _, ok := bc.get("y"); ok {
		t.Error("LRU byte eviction kept the cold entry")
	}
	if _, ok := bc.get("x"); !ok {
		t.Error("LRU byte eviction dropped the hot entry")
	}
	st := bc.stats()
	if st.Bytes > 64 {
		t.Errorf("bytes = %d over the 64-byte bound", st.Bytes)
	}

	// A single oversized entry stays resident.
	oc := newCache(0, 16)
	oc.put(mk("big", 100))
	if _, ok := oc.get("big"); !ok {
		t.Error("oversized entry was evicted into a useless empty cache")
	}
}

func TestHubLagAndReplay(t *testing.T) {
	h := newHub()
	it := engine.WireIteration{Purpose: "initial"}

	// A lagged subscriber (buffer 1) is detached, not blocked on.
	_, slow := h.subscribe(1)
	h.publish(it)
	h.publish(it)
	if _, ok := <-slow; !ok {
		t.Fatal("first event lost")
	}
	if _, ok := <-slow; ok {
		t.Error("lagged subscriber was not detached")
	}
	// Backfill from the history covers what it missed.
	if evs := h.snapshot(0); len(evs) != 1 || evs[0].Seq != 1 {
		t.Errorf("snapshot(0) = %+v, want the one missed event", evs)
	}

	// Late joiner gets full history.
	hist, ch := h.subscribe(4)
	if len(hist) != 2 {
		t.Errorf("late joiner got %d history events, want 2", len(hist))
	}
	h.close()
	if _, ok := <-ch; ok {
		t.Error("close did not release the subscriber")
	}
	hist2, ch2 := h.subscribe(4)
	if ch2 != nil || len(hist2) != 2 {
		t.Error("closed hub should return full history and nil channel")
	}
}
