package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/pkg/engine"
	"repro/pkg/server"
)

const (
	// clients is the number of closed-loop keep-alive clients (the
	// machine the benchmark was defined on has 2 CPUs).
	clients = 2
	// spellings is the number of netlist spellings per hot fixture.
	spellings = 4
	// cacheEntries bounds the result cache below the cold keys one run
	// creates, so cold misses evict older cold entries. Hot keys are read
	// every few requests and stay resident under LRU.
	cacheEntries = 256
	// oracleSamples is how many cold biquad bodies are checked against the
	// exact oracle after the timed window.
	oracleSamples = 48
	// keepBelow bounds the request indices whose cold biquad bodies are
	// kept for the oracle check, so memory does not grow with run length.
	keepBelow = 2000
)

// serveFixture is one hot circuit of the service mix.
type serveFixture struct {
	name    string
	circuit *engine.Circuit
	spec    server.SpecJSON
}

// requestClass is one kind of request of the seeded stream.
type requestClass struct {
	fixture  int  // index into serveMixed.fixtures
	cold     bool // a fresh Rperturb load: a new content key
	perBlock int  // requests of this class in each block of mixBlock
}

// mixClasses is the request mix. Alone, a hit costs about 1 ms (µA741),
// 0.6 ms (ladder40) or 0.12 ms (biquad) and a miss 0.65 ms (biquad) or
// 22 ms (µA741). Under two clients on two CPUs the µA741 hits split into
// a fast mode near 0.7 ms, when the other client's request is cheap, and
// a main mode near 1 ms, with a long tail behind; the fast mode's share
// moves from run to run. The shares put the op median (the 42nd
// percentile of µA741 hits) and the hit median (their 44th) inside the
// main mode, not in the valley before it, the op p90 in their tail, and
// the miss median among the biquad misses (95% of misses). µA741 misses
// are kept rare: each occupies both CPUs for tens of milliseconds and
// slows the hits beside it.
var mixClasses = []requestClass{
	{fixture: 2, perBlock: 340},            // hot µA741
	{fixture: 1, perBlock: 20},             // hot ladder40
	{fixture: 0, perBlock: 20},             // hot biquad
	{fixture: 0, cold: true, perBlock: 19}, // cold biquad
	{fixture: 2, cold: true, perBlock: 1},  // cold µA741
}

// mixBlock is the stratum of the request stream: every block of mixBlock
// consecutive requests holds exactly perBlock requests of each class, in
// a seeded order, so every run sees the mix exactly rather than on
// average (one µA741 miss more or less moves the tail of a run).
const mixBlock = 400

// classOf returns the class of request i of a seed's stream.
func classOf(seed uint64, i int) requestClass {
	var order [mixBlock]uint8
	n := 0
	for c, cl := range mixClasses {
		for k := 0; k < cl.perBlock; k++ {
			order[n] = uint8(c)
			n++
		}
	}
	// A forward Fisher–Yates shuffle fixes position p after p+1 steps.
	blockSeed, p := mix(seed, uint64(i/mixBlock)), i%mixBlock
	for j := 0; j <= p; j++ {
		k := j + int(mix(blockSeed, uint64(j))%uint64(mixBlock-j))
		order[j], order[k] = order[k], order[j]
	}
	return mixClasses[order[p]]
}

// serveMixed drives the HTTP service in process: keep-alive clients in a
// closed loop over a seeded stream of hot requests (the
// fixtures in several spellings each, all cached in set-up) and cold
// requests (a fixture with a unique Rperturb load, a miss that
// generates, fills the cache and, past cacheEntries, evicts).
type serveMixed struct {
	seed     uint64
	fixtures []serveFixture
	// hot[f][v] is the request body of spelling v of fixture f; keys
	// holds the content key of each.
	hot, keys [][]string
	// first maps each content key to the body the priming request
	// answered; every later hit must repeat it byte for byte.
	first  map[string][]byte
	splits int
	cfg    server.Config
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	tr     *tracer
	p      *probe
}

func newServeMixed(seed uint64) workload { return &serveMixed{seed: seed} }

// request returns request i of the seeded stream: its body, class and
// (hot requests) spelling.
func (w *serveMixed) request(i int) (body []byte, class requestClass, spelling int, err error) {
	class = classOf(w.seed, i)
	if !class.cold {
		spelling = int(unit(w.seed, uint64(i)) * spellings)
		return []byte(w.hot[class.fixture][spelling]), class, spelling, nil
	}
	body, err = w.coldBody(class.fixture, i)
	return body, class, 0, err
}

// coldOhms is the Rperturb value of request i: unique within a run.
func coldOhms(i int) int { return 1_000_000 + i }

// coldNetlist renders fixture f with an Rperturb load from its output to
// ground, making request i a content key no other request shares.
func (w *serveMixed) coldNetlist(f, i int) (string, error) {
	fx := w.fixtures[f]
	src, err := netlist.FormatString(fx.circuit)
	if err != nil {
		return "", err
	}
	return strings.Replace(src, ".end", fmt.Sprintf("Rperturb %s 0 %d\n.end", fx.spec.Out, coldOhms(i)), 1), nil
}

func (w *serveMixed) coldBody(f, i int) ([]byte, error) {
	src, err := w.coldNetlist(f, i)
	if err != nil {
		return nil, err
	}
	return requestBody(src, w.fixtures[f].spec)
}

// requestBody renders a POST /v1/generate body.
func requestBody(src string, spec server.SpecJSON) ([]byte, error) {
	return json.Marshal(server.GenerateRequest{
		Netlist: src,
		Spec:    spec,
		Options: &server.OptionsJSON{MaxIterations: 300},
	})
}

// serveFixtures are the hot circuits of the service mix.
func serveFixtures() []serveFixture {
	bin, bout := circuits.BiquadNodes()
	inp, inn, out := circuits.UA741Inputs()
	return []serveFixture{
		{"biquad", circuits.Biquad(), server.SpecJSON{Kind: "vgain", In: bin, Out: bout}},
		{"ladder40", circuits.RCLadder(40, 1e3, 1e-9), server.SpecJSON{Kind: "vgain", In: "in", Out: circuits.RCLadderOut(40)}},
		{"ua741", circuits.UA741(), server.SpecJSON{Kind: "diffgain", In: inp, Inn: inn, Out: out}},
	}
}

// frontSteps runs on a request body the steps the handler runs before
// its cache lookup — decoding the body, parsing the netlist, deriving the
// content key — and returns the key and the time each step took.
func frontSteps(body []byte, cfg engine.Config) (key string, decode, parse, keying time.Duration, err error) {
	t0 := time.Now()
	var req server.GenerateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return "", 0, 0, 0, err
	}
	t1 := time.Now()
	circ, err := engine.ParseNetlist(req.Netlist, "request")
	if err != nil {
		return "", 0, 0, 0, err
	}
	t2 := time.Now()
	opts := engine.Options{MaxIterations: req.Options.MaxIterations}
	spec := engine.Spec{Kind: req.Spec.Kind, In: req.Spec.In, Inn: req.Spec.Inn, Out: req.Spec.Out}
	key, err = engine.RequestKey(engine.Request{Circuit: circ, Spec: spec, Options: &opts}, cfg)
	t3 := time.Now()
	return key, t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), err
}

func (w *serveMixed) setup(tr *tracer) error {
	w.tr, w.p = tr, nil
	w.cfg = server.Config{CacheEntries: cacheEntries}
	if tr != nil {
		w.cfg.Engine.Backend = "perfbench-time:nodal"
		w.p = &probe{}
		active.Store(w.p)
	}
	if err := w.prepare(); err != nil {
		return err
	}
	srv, err := server.New(w.cfg)
	if err != nil {
		return err
	}
	w.srv = srv
	w.ts = httptest.NewServer(srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}
	// Prime every hot content key; a respelling that split onto a key of
	// its own is primed too, so it counts in key_splits, not as a miss.
	w.first = map[string][]byte{}
	for f := range w.hot {
		for v, key := range w.keys[f] {
			if w.first[key] != nil {
				continue
			}
			body, status, _, err := w.post([]byte(w.hot[f][v]))
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("priming %s: status %d: %s", w.fixtures[f].name, status, body)
			}
			w.first[key] = body
		}
	}
	if tr != nil {
		w.p = &probe{}
		active.Store(w.p)
	}
	return nil
}

// prepare builds the request stream's ingredients: the fixtures, the
// hot request bodies in every spelling, their content keys and the
// number of key splits among them.
func (w *serveMixed) prepare() error {
	w.fixtures = serveFixtures()
	w.hot, w.keys = nil, nil
	w.splits = 0
	for _, fx := range w.fixtures {
		src, err := netlist.FormatString(fx.circuit)
		if err != nil {
			return err
		}
		var bodies, keys []string
		distinct := map[string]bool{}
		for v := 0; v < spellings; v++ {
			text, err := respell(src, v, w.seed)
			if err != nil {
				return err
			}
			body, err := requestBody(text, fx.spec)
			if err != nil {
				return err
			}
			key, _, _, _, err := frontSteps(body, w.cfg.Engine)
			if err != nil {
				return fmt.Errorf("%s spelling %d: %w", fx.name, v, err)
			}
			bodies, keys = append(bodies, string(body)), append(keys, key)
			distinct[key] = true
		}
		w.hot, w.keys = append(w.hot, bodies), append(w.keys, keys)
		w.splits += len(distinct) - 1
	}
	return nil
}

func (w *serveMixed) close() {
	if w.ts != nil {
		w.ts.Close()
		w.srv.Close()
		w.client.CloseIdleConnections()
		w.ts, w.srv = nil, nil
	}
}

// post sends one request and reads the whole answer.
func (w *serveMixed) post(body []byte) (answer []byte, status int, cache string, err error) {
	resp, err := w.client.Post(w.ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	answer, err = io.ReadAll(resp.Body)
	return answer, resp.StatusCode, resp.Header.Get("X-Cache"), err
}

// serveRecord is one request as a client saw it.
type serveRecord struct {
	index              int
	class              requestClass
	lat                time.Duration
	decode, parse, key time.Duration // traced runs: the handler's front steps, replayed by the client
	err                error
	body               []byte // kept for cold biquad bodies (oracle check) and traced misses
}

// serveKept is what a serve-mixed segment keeps for verify and layers.
type serveKept struct {
	records       []serveRecord
	before, after server.Stats
}

func (w *serveMixed) run(stop func(time.Duration, int) bool) (*segment, error) {
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		wg      sync.WaitGroup
	)
	per := make([][]serveRecord, clients)
	before := w.srv.Stats()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				// Claims are serialized and the stop decision is sticky,
				// so the requests run are exactly 0..n-1 for some n.
				mu.Lock()
				if stopped || stop(time.Since(start), next) {
					stopped = true
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				per[c] = append(per[c], w.do(i))
			}
		}(c)
	}
	wg.Wait()
	seg := &segment{units: next, elapsed: time.Since(start), counts: map[string]int64{}}
	after := w.srv.Stats()
	kept := &serveKept{before: before, after: after}
	for _, rs := range per {
		kept.records = append(kept.records, rs...)
	}
	for _, r := range kept.records {
		seg.lat = append(seg.lat, r.lat)
		if r.class.cold {
			seg.misses = append(seg.misses, r.lat)
		} else {
			seg.hits = append(seg.hits, r.lat)
		}
		if r.err != nil {
			seg.failed++
			if len(seg.notes) < 10 {
				seg.notes = append(seg.notes, fmt.Sprintf("request %d: %v", r.index, r.err))
			}
		}
	}
	seg.notes = append(seg.notes, classLatencies(w.fixtures, kept.records)...)
	seg.counts["cache_hits"] = int64(after.Cache.Hits - before.Cache.Hits)
	seg.counts["cache_misses"] = int64(after.Cache.Misses - before.Cache.Misses)
	seg.counts["evictions"] = int64(after.Cache.Evictions - before.Cache.Evictions)
	seg.counts["generations"] = int64(after.Generations - before.Generations)
	seg.counts["singleflight_shared"] = int64(after.SingleflightShared - before.SingleflightShared)
	seg.counts["sheds"] = int64(sheds(after) - sheds(before))
	seg.kept = kept
	return seg, nil
}

func sheds(s server.Stats) uint64 {
	return s.Admission.ShedsQueueFull + s.Admission.ShedsDeadline + s.Admission.ShedsDraining
}

// do runs request i and checks its answer: status 200; a hot request is
// a cache hit whose body repeats its key's first body byte for byte; a
// cold request is a miss.
func (w *serveMixed) do(i int) serveRecord {
	body, class, spelling, err := w.request(i)
	r := serveRecord{index: i, class: class}
	if err != nil {
		r.err = err
		return r
	}
	if w.tr != nil {
		// Replay the handler's front steps just before sending, timing
		// each; the server runs the same steps inside the request.
		if _, r.decode, r.parse, r.key, err = frontSteps(body, w.cfg.Engine); err != nil {
			r.err = err
			return r
		}
	}
	t0 := time.Now()
	answer, status, cache, err := w.post(body)
	t1 := time.Now()
	r.lat = t1.Sub(t0)
	if w.tr != nil {
		root := w.tr.add("server.request", i, -1, t0, t1)
		at := t0.Add(-(r.decode + r.parse + r.key))
		for _, s := range []struct {
			name string
			d    time.Duration
		}{{"server.decode", r.decode}, {"netlist.parse", r.parse}, {"engine.key", r.key}} {
			w.tr.add(s.name, i, root, at, at.Add(s.d))
			at = at.Add(s.d)
		}
	}
	switch {
	case err != nil:
		r.err = err
	case status != http.StatusOK:
		r.err = fmt.Errorf("status %d: %.200s", status, answer)
	case !class.cold && cache != "hit":
		r.err = fmt.Errorf("hot %s spelling %d: X-Cache %q, want hit", w.fixtures[class.fixture].name, spelling, cache)
	case !class.cold && !bytes.Equal(answer, w.first[w.keys[class.fixture][spelling]]):
		r.err = fmt.Errorf("hot %s spelling %d: body differs from its key's first body", w.fixtures[class.fixture].name, spelling)
	case class.cold && cache != "miss":
		r.err = fmt.Errorf("cold request: X-Cache %q, want miss", cache)
	case class.cold && (w.tr != nil || i < keepBelow && w.fixtures[class.fixture].name == "biquad"):
		r.body = answer
	}
	return r
}

// verify checks the first oracleSamples cold biquad bodies against the
// exact Bareiss oracle of the perturbed biquad.
func (w *serveMixed) verify(seg *segment) (int, []string) {
	kept := seg.kept.(*serveKept)
	failed, checked := 0, 0
	var notes []string
	bin, bout := circuits.BiquadNodes()
	for _, r := range kept.records {
		if r.body == nil || w.fixtures[r.class.fixture].name != "biquad" || checked == oracleSamples {
			continue
		}
		checked++
		// The oracle analyzes the netlist the server parsed: the text
		// carries six significant digits per value, not the fixture's
		// float64s.
		err := func() error {
			src, err := w.coldNetlist(r.class.fixture, r.index)
			if err != nil {
				return err
			}
			c, err := engine.ParseNetlist(src, "request")
			if err != nil {
				return err
			}
			return checkOracle(r.body, c, bin, bout)
		}()
		if err != nil {
			failed++
			notes = append(notes, fmt.Sprintf("request %d vs exact oracle: %v", r.index, err))
		}
	}
	notes = append(notes, fmt.Sprintf("%d cold biquad bodies checked against the exact oracle; key splits %d", checked, w.splits))
	return failed, notes
}

func (w *serveMixed) layers(seg *segment, tr *tracer) map[string]float64 {
	kept := seg.kept.(*serveKept)
	var decode, parse, key, hitSelf, missLat time.Duration
	hits := 0
	counts := map[string]int64{}
	for _, r := range kept.records {
		decode += r.decode
		parse += r.parse
		key += r.key
		if r.class.cold {
			missLat += r.lat
		} else {
			hits++
			hitSelf += r.lat - r.decode - r.parse - r.key
		}
		if r.class.cold && r.body != nil {
			countWire(r.body, counts)
		}
	}
	busy, sum, calls := w.p.clock.read()
	var opTotal time.Duration
	for _, d := range seg.lat {
		opTotal += d
	}
	c := func(k string) float64 { return float64(seg.counts[k]) }
	n := float64(len(seg.lat))
	us := func(d time.Duration) float64 { return ratio(msOf(d)*1000, n) }
	return map[string]float64{
		"server.decode_us":             us(decode),
		"netlist.parse_us":             us(parse),
		"engine.key_us":                us(key),
		"server.hit_self_us":           ratio(msOf(hitSelf)*1000, float64(hits)),
		"server.cache_hit_ratio":       ratio(c("cache_hits"), c("cache_hits")+c("cache_misses")),
		"server.generations_per_req":   ratio(c("generations"), n),
		"server.evictions_per_req":     ratio(c("evictions"), n),
		"server.singleflight_shared":   c("singleflight_shared"),
		"server.key_splits":            float64(w.splits),
		"server.queue_wait_p50_ms":     kept.after.Admission.QueueWaitP50Ms,
		"server.queue_wait_p99_ms":     kept.after.Admission.QueueWaitP99Ms,
		"server.sheds":                 c("sheds"),
		"server.miss_engine_share":     ratio(float64(w.p.engineNs.Load()), float64(missLat)),
		"nodal.solves_per_op":          ratio(float64(counts["solves"]), n),
		"nodal.factorizations_per_op":  ratio(float64(counts["factorizations"]), n),
		"nodal.joint_hit_ratio":        ratio(float64(counts["joint_hits"]), float64(counts["solves"])),
		"nodal.busy_ms_per_op":         ratio(msOf(busy), n),
		"nodal.us_per_solve":           ratio(msOf(sum)*1000, float64(calls)),
		"nodal.share":                  ratio(float64(busy), float64(opTotal)),
		"core.frames_per_op":           ratio(float64(counts["frames"]), n),
		"core.useful_frame_ratio":      ratio(float64(counts["useful_frames"]), float64(counts["frames"])),
		"core.frame_retries_per_op":    ratio(float64(counts["frame_retries"]), n),
		"trace.unattributed_ms_per_op": 0,
	}
}

// countWire adds the deterministic work counts of a wire body.
func countWire(body []byte, c map[string]int64) {
	var w engine.WireResponse
	if json.Unmarshal(body, &w) != nil {
		return
	}
	for _, r := range []*engine.WireResult{w.Num, w.Den} {
		if r == nil {
			continue
		}
		c["solves"] += int64(r.TotalSolves)
		c["factorizations"] += int64(r.TotalSolves - r.CacheHits)
		c["joint_hits"] += int64(r.CacheHits)
		c["frames"] += int64(len(r.Iterations))
		c["frame_retries"] += int64(r.FrameRetries)
		for _, it := range r.Iterations {
			if it.NewValid+it.Revised > 0 {
				c["useful_frames"]++
			}
		}
	}
}

// classLatencies reports each request class's count and latency
// quartiles and p90, the modes the mix is chosen around.
func classLatencies(fixtures []serveFixture, records []serveRecord) []string {
	byClass := map[requestClass][]time.Duration{}
	for _, r := range records {
		byClass[r.class] = append(byClass[r.class], r.lat)
	}
	var notes []string
	for _, c := range mixClasses {
		ms := durationsMs(byClass[c])
		kind := "hot"
		if c.cold {
			kind = "cold"
		}
		notes = append(notes, fmt.Sprintf("%4s %-8s n=%-6d p25 %.3g  p50 %.3g  p75 %.3g  p90 %.3g ms", kind, fixtures[c.fixture].name,
			len(ms), quantile(ms, 0.25), quantile(ms, 0.5), quantile(ms, 0.75), quantile(ms, 0.9)))
	}
	return notes
}
