// Command loadgen drives load at a running refserve instance and
// gates on the service invariants: latency percentiles, throughput,
// cache-hit rate on hot keys, zero 5xx, and exact single-flight dedup.
//
// Modes:
//
//	steady (default)  a hot/cold key mix at fixed concurrency for -duration
//	-burst N          N concurrent identical cold requests; gates that the
//	                  server ran exactly -expect-generations generations
//	-sweep            a saturation sweep over doubling concurrency levels,
//	                  reporting the throughput knee as JSON
//	-chaos            spawn refserve itself (-chaos-bin) and crash it with
//	                  SIGTERM mid-burst for -chaos-cycles cycles, mixing in
//	                  disk faults, malformed payloads, oversized bodies and
//	                  slow-loris connections; gates that every exit is clean,
//	                  no 5xx other than intentional sheds escapes, and the
//	                  disk cache holds zero corrupt entries at the end
//
// The workload draws from the repo's reference fixtures (biquad, a
// 40-section RC ladder, the µA741) rendered to netlist text. Hot
// requests cycle a fixed key set (warmed before the timed phase), so
// their steady-state X-Cache must be hit or shared; cold requests
// perturb a load resistor per request, so every one is a fresh content
// address and costs a generation.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuits"
	"repro/internal/netlist"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fixture is one workload circuit with its network-function spec.
type fixture struct {
	name    string
	netlist string
	spec    map[string]string
	out     string // output node, where cold perturbations attach
}

func buildFixtures(names []string) ([]fixture, error) {
	all := map[string]func() (fixture, error){
		"biquad": func() (fixture, error) {
			src, err := netlist.FormatString(circuits.Biquad())
			in, out := circuits.BiquadNodes()
			return fixture{"biquad", src, map[string]string{"kind": "vgain", "in": in, "out": out}, out}, err
		},
		"ladder40": func() (fixture, error) {
			src, err := netlist.FormatString(circuits.RCLadder(40, 1e3, 1e-9))
			out := circuits.RCLadderOut(40)
			return fixture{"ladder40", src, map[string]string{"kind": "vgain", "in": "in", "out": out}, out}, err
		},
		"ua741": func() (fixture, error) {
			src, err := netlist.FormatString(circuits.UA741())
			inp, inn, out := circuits.UA741Inputs()
			return fixture{"ua741", src, map[string]string{"kind": "diffgain", "in": inp, "inn": inn, "out": out}, out}, err
		},
	}
	var fxs []fixture
	for _, n := range names {
		build, ok := all[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("unknown fixture %q (have biquad, ladder40, ua741)", n)
		}
		fx, err := build()
		if err != nil {
			return nil, err
		}
		fxs = append(fxs, fx)
	}
	return fxs, nil
}

// requestBody renders the POST body. A non-zero perturb attaches an
// extra load resistor with that many ohms at the output node — a
// distinct but equally well-posed circuit, hence a distinct content
// address.
func requestBody(fx fixture, perturb int64, stream bool, timeoutMs int) []byte {
	src := fx.netlist
	if perturb != 0 {
		card := fmt.Sprintf("Rperturb %s 0 %d\n.end", fx.out, 1_000_000+perturb%1_000_000_000)
		src = strings.Replace(src, ".end", card, 1)
	}
	req := map[string]any{
		"netlist": src,
		"spec":    fx.spec,
		"options": map[string]any{"max_iterations": 300},
	}
	if stream {
		req["stream"] = "ndjson"
	}
	if timeoutMs > 0 {
		req["timeout_ms"] = timeoutMs
	}
	raw, err := json.Marshal(req)
	if err != nil {
		panic(err) // the request map is marshalable by construction
	}
	return raw
}

// sample is one completed request as the client saw it.
type sample struct {
	latency time.Duration
	status  int
	source  string // X-Cache: hit, miss, shared, disk; "" on error
	tier    string // X-Quality-Tier (or the stream result's tier); "" on error
	hot     bool
	shed    bool // 503 carrying Retry-After: an intentional overload shed, not a failure
	err     error
}

// serverStats mirrors the /v1/stats counters loadgen reads.
type serverStats struct {
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	DiskCache struct {
		Hits        uint64 `json:"hits"`
		Quarantines uint64 `json:"quarantines"`
	} `json:"disk_cache"`
	Generations        uint64 `json:"generations"`
	SingleflightShared uint64 `json:"singleflight_shared"`
	ServerErrors       uint64 `json:"server_errors"`
	Admission          struct {
		Admitted       uint64  `json:"admitted"`
		ShedsQueueFull uint64  `json:"sheds_queue_full"`
		ShedsDeadline  uint64  `json:"sheds_deadline"`
		ShedsDraining  uint64  `json:"sheds_draining"`
		QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`
	} `json:"admission"`
	BudgetDegraded uint64 `json:"budget_degraded"`
}

// sheds is the total across shed reasons.
func (st serverStats) sheds() uint64 {
	return st.Admission.ShedsQueueFull + st.Admission.ShedsDeadline + st.Admission.ShedsDraining
}

func getStats(client *http.Client, url string) (serverStats, error) {
	var st serverStats
	resp, err := client.Get(url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// do issues one generate request and classifies the outcome. Streaming
// requests read the NDJSON event stream and take the cache source from
// the closing result event.
func do(client *http.Client, url string, body []byte, stream, hot bool) sample {
	start := time.Now()
	resp, err := client.Post(url+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		return sample{latency: time.Since(start), hot: hot, err: err}
	}
	defer resp.Body.Close()
	s := sample{
		status: resp.StatusCode,
		source: resp.Header.Get("X-Cache"),
		tier:   resp.Header.Get("X-Quality-Tier"),
		hot:    hot,
		shed:   resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "",
	}
	if stream && resp.StatusCode == http.StatusOK {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var last struct {
			Event  string `json:"event"`
			Cache  string `json:"cache"`
			Result struct {
				Tier string `json:"tier"`
			} `json:"result"`
		}
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			_ = json.Unmarshal(sc.Bytes(), &last)
		}
		if err := sc.Err(); err != nil {
			s.err = err
		} else if last.Event != "result" {
			s.err = fmt.Errorf("stream ended on %q, not result", last.Event)
		}
		s.source = last.Cache
		s.tier = last.Result.Tier
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	s.latency = time.Since(start)
	return s
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// report is the machine-readable outcome (-json, and the sweep
// artifact).
type report struct {
	Mode     string `json:"mode"`
	Requests int    `json:"requests"`
	Errors   int    `json:"errors"`
	// Status5xx counts unintentional server failures only; load sheds
	// (503 + Retry-After) are accounted separately in Sheds.
	Status5xx   int     `json:"status_5xx"`
	Sheds       int     `json:"sheds"`
	Elapsed     float64 `json:"elapsed_s"`
	Throughput  float64 `json:"throughput_rps"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	HotRequests int     `json:"hot_requests"`
	HotHitRate  float64 `json:"hot_hit_rate"`
	// Tiers counts successful responses by quality tier (exact,
	// certified, numeric, degraded — see the service's X-Quality-Tier
	// header); DegradedRate is the degraded fraction of tiered responses.
	Tiers        map[string]int `json:"tiers,omitempty"`
	Degraded     int            `json:"degraded_requests"`
	DegradedRate float64        `json:"degraded_rate"`
	Generations  uint64         `json:"generations_delta"`
	Shared       uint64         `json:"singleflight_shared_delta"`
	CacheHits    uint64         `json:"cache_hits_delta"`
	CacheMisses  uint64         `json:"cache_misses_delta"`
	DiskHits     uint64         `json:"disk_cache_hits_delta"`
	ServerSheds  uint64         `json:"server_sheds_delta"`
	Quarantines  uint64         `json:"store_quarantines_delta"`
	Levels       []sweepLevel   `json:"levels,omitempty"`
	Knee         int            `json:"knee_concurrency,omitempty"`
}

type sweepLevel struct {
	Concurrency int     `json:"concurrency"`
	Throughput  float64 `json:"throughput_rps"`
	P95Ms       float64 `json:"p95_ms"`
}

func summarize(mode string, samples []sample, elapsed time.Duration, before, after serverStats) report {
	r := report{Mode: mode, Requests: len(samples), Elapsed: elapsed.Seconds(), Tiers: map[string]int{}}
	var lats []time.Duration
	hotEffective, tiered := 0, 0
	for _, s := range samples {
		if s.err != nil {
			r.Errors++
			continue
		}
		lats = append(lats, s.latency)
		switch {
		case s.shed:
			r.Sheds++
		case s.status >= 500:
			r.Status5xx++
		}
		if s.status < 400 && s.tier != "" {
			r.Tiers[s.tier]++
			tiered++
			if s.tier == "degraded" {
				r.Degraded++
			}
		}
		if s.hot {
			r.HotRequests++
			// The disk tier answers from persistent state without a
			// generation, so it is cache-effective like a memory hit.
			if s.source == "hit" || s.source == "shared" || s.source == "disk" {
				hotEffective++
			}
		}
	}
	if tiered > 0 {
		r.DegradedRate = float64(r.Degraded) / float64(tiered)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	r.P50Ms = percentile(lats, 0.50).Seconds() * 1e3
	r.P95Ms = percentile(lats, 0.95).Seconds() * 1e3
	r.P99Ms = percentile(lats, 0.99).Seconds() * 1e3
	if elapsed > 0 {
		r.Throughput = float64(len(samples)) / elapsed.Seconds()
	}
	if r.HotRequests > 0 {
		r.HotHitRate = float64(hotEffective) / float64(r.HotRequests)
	}
	r.Generations = after.Generations - before.Generations
	r.Shared = after.SingleflightShared - before.SingleflightShared
	r.CacheHits = after.Cache.Hits - before.Cache.Hits
	r.CacheMisses = after.Cache.Misses - before.Cache.Misses
	r.DiskHits = after.DiskCache.Hits - before.DiskCache.Hits
	r.ServerSheds = after.sheds() - before.sheds()
	r.Quarantines = after.DiskCache.Quarantines - before.DiskCache.Quarantines
	return r
}

// steadyPhase runs the hot/cold mix at the given concurrency until the
// deadline and returns every sample.
func steadyPhase(client *http.Client, url string, fxs []fixture, hot hotSet,
	concurrency int, duration time.Duration, hotFrac, streamFrac float64,
	timeoutMs int, seed int64, coldSeq *atomic.Int64) []sample {
	deadline := time.Now().Add(duration)
	perWorker := make([][]sample, concurrency)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for time.Now().Before(deadline) {
				stream := rng.Float64() < streamFrac
				if rng.Float64() < hotFrac {
					bodies := hot.plain
					if stream {
						bodies = hot.stream
					}
					body := bodies[rng.Intn(len(bodies))]
					perWorker[w] = append(perWorker[w], do(client, url, body, stream, true))
				} else {
					fx := fxs[rng.Intn(len(fxs))]
					body := requestBody(fx, coldSeq.Add(1), stream, timeoutMs)
					perWorker[w] = append(perWorker[w], do(client, url, body, stream, false))
				}
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, s := range perWorker {
		all = append(all, s...)
	}
	return all
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url         = fs.String("url", "", "refserve base URL (required), e.g. http://127.0.0.1:8080")
		fixtureList = fs.String("fixtures", "biquad,ladder40,ua741", "comma-separated workload fixtures")
		duration    = fs.Duration("duration", 30*time.Second, "steady/sweep-level run time")
		concurrency = fs.Int("concurrency", 8, "concurrent workers (steady mode)")
		hotFrac     = fs.Float64("hot", 0.9, "fraction of requests aimed at the hot key set")
		hotKeys     = fs.Int("hot-keys", 3, "hot key set size (cycles the fixtures)")
		streamFrac  = fs.Float64("stream", 0, "fraction of requests using NDJSON streaming")
		timeoutMs   = fs.Int("timeout-ms", 0, "per-request timeout_ms (0 = server default)")
		seed        = fs.Int64("seed", 1, "workload RNG seed")
		minHitRate  = fs.Float64("min-hit-rate", -1, "gate: minimum hot-request cache-effective rate (0..1)")
		max5xx      = fs.Int("max-5xx", -1, "gate: maximum tolerated 5xx responses")
		maxDegraded = fs.Float64("max-degraded-rate", -1, "gate: maximum degraded fraction of tiered responses (0..1)")
		burst       = fs.Int("burst", 0, "burst mode: this many concurrent identical cold requests")
		expectGen   = fs.Int("expect-generations", -1, "gate (burst mode): exact server generations delta")
		sweep       = fs.Bool("sweep", false, "saturation sweep mode: double concurrency up to -sweep-max")
		sweepMax    = fs.Int("sweep-max", 32, "sweep mode: maximum concurrency")
		maxSheds    = fs.Int("max-sheds", -1, "gate: maximum tolerated load sheds (503 + Retry-After)")
		jsonPath    = fs.String("json", "", "write the report JSON to this file")

		chaos             = fs.Bool("chaos", false, "chaos mode: spawn -chaos-bin and crash it mid-burst for -chaos-cycles")
		chaosBin          = fs.String("chaos-bin", "", "chaos mode: path to the refserve binary to spawn")
		chaosCycles       = fs.Int("chaos-cycles", 10, "chaos mode: crash/restart cycles")
		chaosDir          = fs.String("chaos-dir", "", "chaos mode: state directory for the persistent stores (empty = temp dir)")
		chaosFaultOneIn   = fs.Int("chaos-fault-one-in", 16, "chaos mode: disk-fault rate passed to refserve on fault cycles (0 = never inject)")
		chaosDrainTimeout = fs.Duration("chaos-drain-timeout", 1*time.Second, "chaos mode: refserve -drain-timeout")
		chaosShedGateMs   = fs.Float64("chaos-shed-p50-gate-ms", 50, "chaos mode: gate on median shed latency in ms (0 = report but do not gate)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *chaos {
		rep, err := runChaos(chaosConfig{
			bin:          *chaosBin,
			cycles:       *chaosCycles,
			dir:          *chaosDir,
			faultOneIn:   *chaosFaultOneIn,
			drainTimeout: *chaosDrainTimeout,
			seed:         *seed,
			shedGateMs:   *chaosShedGateMs,
		}, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: chaos: %v\n", err)
			return 1
		}
		if *jsonPath != "" {
			raw, _ := json.MarshalIndent(rep, "", "  ")
			if err := os.WriteFile(*jsonPath, append(raw, '\n'), 0o644); err != nil {
				fmt.Fprintf(stderr, "loadgen: %v\n", err)
				return 1
			}
		}
		return rep.gate(stderr)
	}
	if *url == "" {
		fmt.Fprintln(stderr, "loadgen: -url is required")
		return 2
	}
	fxs, err := buildFixtures(strings.Split(*fixtureList, ","))
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 2
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        max(*concurrency, *sweepMax) * 2,
		MaxIdleConnsPerHost: max(*concurrency, *sweepMax) * 2,
	}}

	before, err := getStats(client, *url)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: reading server stats: %v\n", err)
		return 1
	}

	var rep report
	switch {
	case *burst > 0:
		rep = runBurst(client, *url, fxs[0], *burst, *seed, before)
	case *sweep:
		rep = runSweep(client, *url, fxs, *hotKeys, *sweepMax, *duration, *hotFrac,
			*streamFrac, *timeoutMs, *seed, before)
	default:
		rep = runSteady(client, *url, fxs, *hotKeys, *concurrency, *duration, *hotFrac,
			*streamFrac, *timeoutMs, *seed, before)
	}

	printReport(stdout, rep)
	if *jsonPath != "" {
		raw, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*jsonPath, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "loadgen: %v\n", err)
			return 1
		}
	}

	// Gates.
	code := 0
	if rep.Errors > 0 {
		fmt.Fprintf(stderr, "loadgen: GATE FAIL: %d transport/protocol errors\n", rep.Errors)
		code = 1
	}
	if *max5xx >= 0 && rep.Status5xx > *max5xx {
		fmt.Fprintf(stderr, "loadgen: GATE FAIL: %d 5xx responses (max %d)\n", rep.Status5xx, *max5xx)
		code = 1
	}
	if *maxSheds >= 0 && rep.Sheds > *maxSheds {
		fmt.Fprintf(stderr, "loadgen: GATE FAIL: %d load sheds (max %d)\n", rep.Sheds, *maxSheds)
		code = 1
	}
	if *minHitRate >= 0 && rep.HotHitRate < *minHitRate {
		fmt.Fprintf(stderr, "loadgen: GATE FAIL: hot-key cache-effective rate %.3f < %.3f\n",
			rep.HotHitRate, *minHitRate)
		code = 1
	}
	if *maxDegraded >= 0 && rep.DegradedRate > *maxDegraded {
		fmt.Fprintf(stderr, "loadgen: GATE FAIL: degraded rate %.3f (%d requests) > %.3f\n",
			rep.DegradedRate, rep.Degraded, *maxDegraded)
		code = 1
	}
	if *burst > 0 && *expectGen >= 0 && rep.Generations != uint64(*expectGen) {
		fmt.Fprintf(stderr, "loadgen: GATE FAIL: burst ran %d generations, expected exactly %d\n",
			rep.Generations, *expectGen)
		code = 1
	}
	return code
}

// hotSet is the hot key set in both response shapes. The plain and
// streaming variants of a key share a content address (stream is not
// part of the key), so warming the plain body warms both.
type hotSet struct {
	plain  [][]byte
	stream [][]byte
}

// hotRequestBodies builds the hot key set: n variants cycling the
// fixtures, each with a stable per-variant perturbation so the set's
// content addresses are distinct and reproducible across runs.
func hotRequestBodies(fxs []fixture, n int, timeoutMs int) hotSet {
	var hot hotSet
	for i := 0; i < n; i++ {
		fx := fxs[i%len(fxs)]
		var perturb int64
		if i >= len(fxs) {
			perturb = int64(i) // stable, distinct from the pristine fixture
		}
		hot.plain = append(hot.plain, requestBody(fx, perturb, false, timeoutMs))
		hot.stream = append(hot.stream, requestBody(fx, perturb, true, timeoutMs))
	}
	return hot
}

func runSteady(client *http.Client, url string, fxs []fixture, hotKeys, concurrency int,
	duration time.Duration, hotFrac, streamFrac float64, timeoutMs int, seed int64,
	before serverStats) report {
	hot := hotRequestBodies(fxs, hotKeys, timeoutMs)
	// Warm the hot set so the timed phase measures steady state.
	for _, b := range hot.plain {
		do(client, url, b, false, true)
	}
	var coldSeq atomic.Int64
	coldSeq.Store(seed * 1_000_003)
	start := time.Now()
	samples := steadyPhase(client, url, fxs, hot, concurrency, duration,
		hotFrac, streamFrac, timeoutMs, seed, &coldSeq)
	elapsed := time.Since(start)
	after, _ := getStats(client, url)
	return summarize("steady", samples, elapsed, before, after)
}

func runBurst(client *http.Client, url string, fx fixture, n int, seed int64, before serverStats) report {
	// A key this server has never seen: perturb with the wall clock so
	// repeated loadgen runs against a long-lived server stay cold.
	perturb := time.Now().UnixNano()%1_000_000_000 + seed
	body := requestBody(fx, perturb, false, 0)
	samples := make([]sample, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			samples[i] = do(client, url, body, false, false)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	after, _ := getStats(client, url)
	return summarize("burst", samples, elapsed, before, after)
}

func runSweep(client *http.Client, url string, fxs []fixture, hotKeys, sweepMax int,
	stepDuration time.Duration, hotFrac, streamFrac float64, timeoutMs int, seed int64,
	before serverStats) report {
	hot := hotRequestBodies(fxs, hotKeys, timeoutMs)
	for _, b := range hot.plain {
		do(client, url, b, false, true)
	}
	var coldSeq atomic.Int64
	coldSeq.Store(seed * 1_000_003)
	var all []sample
	var levels []sweepLevel
	start := time.Now()
	for c := 1; c <= sweepMax; c *= 2 {
		lvlStart := time.Now()
		samples := steadyPhase(client, url, fxs, hot, c, stepDuration,
			hotFrac, streamFrac, timeoutMs, seed+int64(c), &coldSeq)
		lvlElapsed := time.Since(lvlStart)
		var lats []time.Duration
		for _, s := range samples {
			if s.err == nil {
				lats = append(lats, s.latency)
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		levels = append(levels, sweepLevel{
			Concurrency: c,
			Throughput:  float64(len(samples)) / lvlElapsed.Seconds(),
			P95Ms:       percentile(lats, 0.95).Seconds() * 1e3,
		})
		all = append(all, samples...)
	}
	elapsed := time.Since(start)
	after, _ := getStats(client, url)
	rep := summarize("sweep", all, elapsed, before, after)
	rep.Levels = levels
	// The knee is the last level whose doubling still bought ≥10% more
	// throughput: past it, added concurrency only buys queueing.
	rep.Knee = levels[0].Concurrency
	for i := 1; i < len(levels); i++ {
		if levels[i].Throughput >= 1.1*levels[i-1].Throughput {
			rep.Knee = levels[i].Concurrency
		} else {
			break
		}
	}
	return rep
}

func printReport(w io.Writer, r report) {
	fmt.Fprintf(w, "loadgen %s: %d requests in %.1fs (%.1f rps), %d errors, %d 5xx, %d sheds\n",
		r.Mode, r.Requests, r.Elapsed, r.Throughput, r.Errors, r.Status5xx, r.Sheds)
	fmt.Fprintf(w, "latency: p50 %.2fms  p95 %.2fms  p99 %.2fms\n", r.P50Ms, r.P95Ms, r.P99Ms)
	if r.HotRequests > 0 {
		fmt.Fprintf(w, "hot keys: %d requests, cache-effective %.1f%%\n", r.HotRequests, 100*r.HotHitRate)
	}
	if len(r.Tiers) > 0 {
		names := make([]string, 0, len(r.Tiers))
		for tier := range r.Tiers {
			names = append(names, tier)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, tier := range names {
			parts[i] = fmt.Sprintf("%s %d", tier, r.Tiers[tier])
		}
		fmt.Fprintf(w, "quality tiers: %s (degraded rate %.1f%%)\n",
			strings.Join(parts, ", "), 100*r.DegradedRate)
	}
	fmt.Fprintf(w, "server deltas: generations +%d, singleflight-shared +%d, cache hits +%d misses +%d disk +%d, sheds +%d, quarantines +%d\n",
		r.Generations, r.Shared, r.CacheHits, r.CacheMisses, r.DiskHits, r.ServerSheds, r.Quarantines)
	for _, lvl := range r.Levels {
		fmt.Fprintf(w, "sweep c=%-3d  %.1f rps  p95 %.2fms\n", lvl.Concurrency, lvl.Throughput, lvl.P95Ms)
	}
	if r.Knee > 0 {
		fmt.Fprintf(w, "saturation knee: concurrency %d\n", r.Knee)
	}
}
