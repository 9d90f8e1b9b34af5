// Package server is the HTTP front end of the reference-generation
// engine. One POST endpoint accepts a netlist, a network-function Spec
// and generation options, and answers with the deterministic wire-form
// result (pkg/engine wire format) — either as a single JSON body or as
// an NDJSON/SSE stream of iteration events followed by the final
// result.
//
// The data path is admission → content address → cache → single-flight
// → engine:
//
//   - every request is content-addressed with engine.RequestKey, so
//     respelled netlists, renamed elements and execution-only option
//     differences all land on the same address;
//   - the LRU result cache answers hot keys without touching the
//     engine, byte-identically (the wire format is deterministic);
//   - concurrent misses on the same key collapse into one flight: one
//     generation runs, every waiter shares its outcome. Waiters that
//     hit their per-request deadline detach with 504 while the flight
//     runs on under the server's lifetime context and still fills the
//     cache;
//   - a semaphore bounds concurrently running generations (admission
//     control); excess flights queue.
//
// Failures keep their taxonomy: client mistakes are 400, generation
// failures are 422 with the engine's error kind in the body, deadline
// exhaustion is 504. 5xx means a bug (panic) — the CI load gate counts
// them. Every 200 carries the result's quality tier in the
// X-Quality-Tier header and its worst certified relative error in
// X-Worst-Rel-Error; a request may set min_tier to refuse (422,
// below-min-tier) results under a quality floor, and min_tier keys the
// result cache, so an exact-tier request never shares a numeric-tier
// hit. Degraded partial results (Options.AllowDegraded) are 200s whose
// body and tier header say so.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blobstore"
	"repro/pkg/engine"
)

// Config configures a Server. The zero value serves with the default
// engine, a 512-entry/64 MiB cache, GOMAXPROCS concurrent generations
// and a 60 s default / 5 min maximum request deadline.
type Config struct {
	// Engine configures the backend and default generation options.
	Engine engine.Config
	// CacheEntries and CacheBytes bound the result cache. 0 selects the
	// defaults (512 entries, 64 MiB); negative disables that bound.
	CacheEntries int
	CacheBytes   int64
	// MaxConcurrent bounds generations running at once; further flights
	// queue for a slot. 0 selects GOMAXPROCS.
	MaxConcurrent int
	// DefaultTimeout applies to requests that carry no timeout_ms;
	// MaxTimeout clamps requested timeouts and bounds every flight's
	// generation. 0 selects 60 s and 5 min.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxQueue bounds flights waiting for a generation slot: arrival
	// MaxQueue+1 is shed immediately with 503 + Retry-After instead of
	// queuing without bound. 0 selects 4×MaxConcurrent; negative makes
	// the queue unbounded (the pre-admission-control behavior).
	MaxQueue int
	// MaxBodyBytes caps the request body; larger bodies answer 413
	// (kind body-too-large) as soon as the limit is crossed. 0 selects
	// 4 MiB.
	MaxBodyBytes int64
	// CacheDir, when non-empty, roots the persistent tier of the result
	// cache: finished non-degraded bodies are written through (temp file
	// + rename, "sha256:<hex>\n" + body) and a restarted server serves
	// them without regenerating. An entry whose frame fails is
	// quarantined (renamed aside, never deleted) and regenerated, never
	// served. Empty disables the tier.
	CacheDir string
	// StoreFS, when non-nil, replaces the real filesystem under the
	// CacheDir tier — the seam the chaos harness uses to inject torn
	// writes, bit flips and rename or read failures (internal/faultfs).
	// Nil selects the real filesystem.
	StoreFS FS
	// SolveBudget is the server-enforced per-request execution budget:
	// each polynomial of every generation may spend at most this many
	// point solves (engine.Options.MaxSolves), whatever the request
	// asks for. Exhaustion yields a degraded partial result under the
	// tier contract — served to the flight's waiters with its tier
	// labeled, but never cached, so the next request regenerates. A
	// request's own limits (max_iterations) are result settings and
	// still refuse with 422. Execution-only: it never changes a
	// request's content address. 0 disables it.
	SolveBudget int
}

// Stats is the server's counter snapshot (GET /v1/stats). Field order
// is the wire order — encoding/json emits struct fields in declaration
// order and Backends is sorted by name, so the document is byte-
// deterministic for a given counter state (golden-file testable).
type Stats struct {
	// Since is the instant the counters started accumulating (RFC 3339,
	// UTC): the window worst_rel_error and the tier tallies cover.
	Since string `json:"since"`
	// Draining reports drain mode: new generations are being shed and
	// /healthz answers 503 while in-flight work finishes.
	Draining bool       `json:"draining"`
	Cache    CacheStats `json:"cache"`
	// DiskCache is the persistent result-cache tier (all zeros when
	// Config.CacheDir is unset).
	DiskCache DiskCacheStats `json:"disk_cache"`
	// Generations counts engine generations actually run — the number
	// the single-flight and cache layers exist to minimize.
	Generations uint64 `json:"generations"`
	// SingleflightShared counts requests answered by attaching to an
	// already-running flight instead of generating.
	SingleflightShared uint64 `json:"singleflight_shared"`
	Requests           uint64 `json:"requests"`
	Inflight           int64  `json:"inflight"`
	// ServerErrors counts 5xx responses from handler panics. Sheds are
	// 503s but are counted under Admission, not here: they are the
	// service protecting itself, not failing.
	ServerErrors  uint64 `json:"server_errors"`
	MaxConcurrent int    `json:"max_concurrent"`
	// Admission is the wait-queue picture: depth, shed counts by
	// reason, queue-wait percentiles and the latency EWMA behind
	// Retry-After.
	Admission AdmissionStats `json:"admission"`
	// BudgetDegraded counts generations the server's solve budget
	// degraded into labeled partial results (never cached).
	BudgetDegraded uint64 `json:"budget_degraded"`
	// Tiers counts completed generations by result quality tier.
	Tiers TierCounts `json:"tiers"`
	// WorstRelError is the largest certified relative error estimate
	// any completed generation reported since Since.
	WorstRelError float64 `json:"worst_rel_error"`
	// Backends breaks generations, tiers and worst error down by the
	// backend that formulated them, sorted by name.
	Backends []BackendStats `json:"backends"`
}

// TierCounts is the per-tier generation tally of Stats.
type TierCounts struct {
	Exact     uint64 `json:"exact"`
	Certified uint64 `json:"certified"`
	Numeric   uint64 `json:"numeric"`
	Degraded  uint64 `json:"degraded"`
}

// BackendStats is one backend's slice of the quality tallies.
type BackendStats struct {
	Name          string     `json:"name"`
	Generations   uint64     `json:"generations"`
	Tiers         TierCounts `json:"tiers"`
	WorstRelError float64    `json:"worst_rel_error"`
}

// Server implements the service. Create with New, serve Handler, Close
// when done (Close waits for in-flight generations to unwind). For a
// graceful exit call StartDrain first: new generations shed with 503 +
// Retry-After and /healthz flips to 503 while in-flight flights finish;
// Close then cancels whatever remains.
type Server struct {
	cfg      Config
	eng      *engine.Engine
	cache    *cache
	disk     *blobstore.Store
	group    *group
	adm      *admission
	base     context.Context
	stop     context.CancelFunc
	wg       sync.WaitGroup
	closed   atomic.Bool
	draining atomic.Bool
	started  time.Time

	generations    atomic.Uint64
	shared         atomic.Uint64
	requests       atomic.Uint64
	inflight       atomic.Int64
	serverErrors   atomic.Uint64
	budgetDegraded atomic.Uint64
	tierCounts     [4]atomic.Uint64 // indexed by engine.Tier
	worstRelBits   atomic.Uint64    // math.Float64bits of the max seen

	backendMu sync.Mutex
	backends  map[string]*backendCounters
}

// backendCounters is the per-backend quality tally behind
// Stats.Backends.
type backendCounters struct {
	generations uint64
	tiers       [4]uint64
	worstRel    float64
}

// recordQuality tallies a completed generation's tier and folds its
// worst relative error into the running maximum, globally and for the
// backend that formulated it.
func (s *Server) recordQuality(backend string, tier engine.Tier, worst float64) {
	if tier >= 0 && int(tier) < len(s.tierCounts) {
		s.tierCounts[tier].Add(1)
	}
	for {
		old := s.worstRelBits.Load()
		if worst <= math.Float64frombits(old) {
			break
		}
		if s.worstRelBits.CompareAndSwap(old, math.Float64bits(worst)) {
			break
		}
	}
	if backend == "" {
		return
	}
	s.backendMu.Lock()
	defer s.backendMu.Unlock()
	bc := s.backends[backend]
	if bc == nil {
		bc = &backendCounters{}
		s.backends[backend] = bc
	}
	bc.generations++
	if tier >= 0 && int(tier) < len(bc.tiers) {
		bc.tiers[tier]++
	}
	if worst > bc.worstRel {
		bc.worstRel = worst
	}
}

// New validates the configuration and returns a ready server.
func New(cfg Config) (*Server, error) {
	eng, err := engine.New(cfg.Engine)
	if err != nil {
		return nil, err
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 512
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	} else if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0 // unbounded
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 4 << 20
	}
	var disk *blobstore.Store
	if cfg.CacheDir != "" {
		disk, err = blobstore.Open(cfg.CacheDir, cfg.StoreFS)
		if err != nil {
			return nil, fmt.Errorf("server: disk cache: %w", err)
		}
	}
	base, stop := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		eng:      eng,
		cache:    newCache(cfg.CacheEntries, cfg.CacheBytes),
		disk:     disk,
		group:    newGroup(),
		adm:      newAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		base:     base,
		stop:     stop,
		started:  time.Now().UTC(),
		backends: make(map[string]*backendCounters),
	}, nil
}

// StartDrain flips the server into drain mode: every admission from
// here on is shed immediately (503 + Retry-After, reason draining),
// /healthz answers 503 so load balancers rotate the instance out, and
// cache hits keep being served. In-flight flights are unaffected — they
// finish, answer their waiters and fill the cache tiers. Call Close
// (after the HTTP server's own Shutdown) to cancel whatever is still
// running at the drain deadline.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports drain mode.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close cancels every running flight and waits for their goroutines.
func (s *Server) Close() {
	s.draining.Store(true)
	s.closed.Store(true)
	s.stop()
	s.wg.Wait()
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Since:              s.started.Format(time.RFC3339Nano),
		Draining:           s.draining.Load(),
		Cache:              s.cache.stats(),
		DiskCache:          s.disk.Stats(),
		Generations:        s.generations.Load(),
		SingleflightShared: s.shared.Load(),
		Requests:           s.requests.Load(),
		Inflight:           s.inflight.Load(),
		ServerErrors:       s.serverErrors.Load(),
		MaxConcurrent:      s.cfg.MaxConcurrent,
		Admission:          s.adm.stats(),
		BudgetDegraded:     s.budgetDegraded.Load(),
		Tiers: TierCounts{
			Exact:     s.tierCounts[engine.TierExact].Load(),
			Certified: s.tierCounts[engine.TierCertified].Load(),
			Numeric:   s.tierCounts[engine.TierNumeric].Load(),
			Degraded:  s.tierCounts[engine.TierDegraded].Load(),
		},
		WorstRelError: math.Float64frombits(s.worstRelBits.Load()),
		Backends:      []BackendStats{},
	}
	s.backendMu.Lock()
	for name, bc := range s.backends {
		st.Backends = append(st.Backends, BackendStats{
			Name:        name,
			Generations: bc.generations,
			Tiers: TierCounts{
				Exact:     bc.tiers[engine.TierExact],
				Certified: bc.tiers[engine.TierCertified],
				Numeric:   bc.tiers[engine.TierNumeric],
				Degraded:  bc.tiers[engine.TierDegraded],
			},
			WorstRelError: bc.worstRel,
		})
	}
	s.backendMu.Unlock()
	sort.Slice(st.Backends, func(i, j int) bool { return st.Backends[i].Name < st.Backends[j].Name })
	return st
}

// Handler returns the service mux: POST /v1/generate, GET /v1/stats,
// GET /healthz (503 while draining).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", s.handleGenerate)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return s.recovered(mux)
}

// recovered converts handler panics into counted 500s — the only 5xx
// the service produces, which is what makes "zero 5xx" a meaningful
// load-gate invariant.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.serverErrors.Add(1)
				writeError(w, http.StatusInternalServerError, "panic", fmt.Errorf("%v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// GenerateRequest is the POST /v1/generate body.
type GenerateRequest struct {
	// Netlist is SPICE-like netlist source text.
	Netlist string `json:"netlist"`
	// Spec names the network function.
	Spec SpecJSON `json:"spec"`
	// Options, when present, overrides the server's generation options.
	Options *OptionsJSON `json:"options,omitempty"`
	// TimeoutMs caps this request's wait (clamped to the server's
	// MaxTimeout). 0 selects the server default.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Stream selects the response shape: "" (single JSON body),
	// "ndjson" or "sse". The stream query parameter takes precedence.
	Stream string `json:"stream,omitempty"`
	// MinTier, when set ("numeric", "certified" or "exact"), refuses
	// results under that quality tier with a 422 (kind below-min-tier)
	// instead of answering 200. "exact" additionally switches on the
	// engine's exact-recovery pass for the request. The requested tier
	// is part of the cache identity: an exact-tier request never shares
	// a cache entry with an untiered one.
	MinTier string `json:"min_tier,omitempty"`
}

// SpecJSON mirrors engine.Spec on the wire.
type SpecJSON struct {
	Kind string `json:"kind"`
	In   string `json:"in,omitempty"`
	Inn  string `json:"inn,omitempty"`
	Out  string `json:"out,omitempty"`
}

// OptionsJSON is engine.Options on the wire: its json tags name the
// client-settable fields, and hooks, budgets, warm-start state and
// ablation switches are tagged "-" and stay server-side.
type OptionsJSON = engine.Options

// errorBody is the JSON shape of every non-200 answer.
type errorBody struct {
	Status int    `json:"status"`
	Kind   string `json:"kind"`
	Error  string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, kind string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Status: status, Kind: kind, Error: err.Error()})
}

// tierError reports a generated result that fell short of the
// request's min_tier floor. It is a 422: the generation itself
// succeeded, the quality contract was not met.
type tierError struct {
	got, want engine.Tier
}

func (e *tierError) Error() string {
	return fmt.Sprintf("quality tier %s below requested minimum %s", e.got, e.want)
}

// errKind names a generation failure with the engine taxonomy.
func errKind(err error) string {
	var te *tierError
	if errors.As(err, &te) {
		return "below-min-tier"
	}
	var se *shedError
	if errors.As(err, &se) {
		return "shed"
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, engine.ErrIterationBudget):
		return "iteration-budget"
	case errors.Is(err, engine.ErrStall):
		return "stall"
	case errors.Is(err, engine.ErrScaleDivergence):
		return "scale-divergence"
	case errors.Is(err, engine.ErrFrameFailed):
		return "frame-failed"
	case errors.Is(err, engine.ErrSingularPoint):
		return "singular-point"
	default:
		return "generation"
	}
}

// errStatus maps a flight failure to its HTTP status: sheds are 503
// (with Retry-After), deadline/cancel of the flight itself is 504,
// everything the engine can diagnose is a 422 — the request was
// well-formed but this circuit × spec × options cannot be generated as
// asked.
func errStatus(err error) int {
	var se *shedError
	if errors.As(err, &se) {
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

// setRetryAfter stamps the Retry-After contract on a shed response:
// the header is the EWMA-derived estimate rounded up to whole seconds
// (minimum 1, per RFC 9110 delta-seconds).
func setRetryAfter(h http.Header, err error) {
	var se *shedError
	if !errors.As(err, &se) {
		return
	}
	secs := int64((se.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	h.Set("Retry-After", fmt.Sprintf("%d", secs))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Stats())
}

// decodeOne decodes the one JSON value a request body holds. Anything
// but whitespace after it is refused, so a body never means more than
// the value the server acted on.
func decodeOne(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return err
	}
	return errors.New("trailing data after the request object")
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	var req GenerateRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := decodeOne(body, &req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "body-too-large",
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad-request", fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Netlist == "" {
		writeError(w, http.StatusBadRequest, "bad-request", errors.New("empty netlist"))
		return
	}
	circ, err := engine.ParseNetlist(req.Netlist, "request")
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-netlist", err)
		return
	}

	if req.Options == nil {
		// Resolve the server default into a per-request copy, which the
		// tier gate, the budgets and the warm start below may adjust.
		opts := s.cfg.Engine.Options
		req.Options = &opts
	}
	ereq := engine.Request{
		Circuit: circ,
		Spec:    engine.Spec{Kind: req.Spec.Kind, In: req.Spec.In, Inn: req.Spec.Inn, Out: req.Spec.Out},
		Options: req.Options,
	}
	var minTier engine.Tier
	gateTier := req.MinTier != ""
	if gateTier {
		minTier, err = engine.ParseTier(req.MinTier)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad-request", err)
			return
		}
		if minTier == engine.TierExact {
			// The exact floor is only reachable through the recovery
			// pass; switch it on rather than refuse every request.
			ereq.Options.ExactRecovery = true
		}
	}
	key, err := engine.RequestKey(ereq, s.cfg.Engine)
	if err != nil {
		kind := "bad-netlist"
		if errors.Is(err, engine.ErrBadOptions) {
			kind = "bad-options"
		}
		writeError(w, http.StatusBadRequest, kind, err)
		return
	}
	// The requested tier joins the cache/single-flight identity: a
	// min_tier=exact request must never be answered with a cached
	// numeric-tier body, and a tier-gated flight's 422 must not poison
	// untiered waiters.
	cacheKey := key
	if gateTier {
		cacheKey = key + "+tier-" + req.MinTier
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	mode := streamMode(r, req.Stream)
	if mode == "invalid" {
		writeError(w, http.StatusBadRequest, "bad-request",
			errors.New(`stream must be "", "ndjson" or "sse"`))
		return
	}

	if e, ok := s.cache.get(cacheKey); ok {
		s.respondEntry(w, mode, "hit", e)
		return
	}
	if e := s.diskGet(cacheKey); e != nil {
		s.respondEntry(w, mode, "disk", e)
		return
	}

	fl, leader := s.group.join(cacheKey)
	if leader {
		s.wg.Add(1)
		go s.runFlight(fl, ereq, time.Now().Add(timeout), minTier, gateTier)
	} else {
		s.shared.Add(1)
	}
	source := "miss"
	if !leader {
		source = "shared"
	}

	if mode != "" {
		s.streamFlight(ctx, w, mode, source, fl)
		return
	}
	select {
	case <-fl.done:
		if fl.err != nil {
			setRetryAfter(w.Header(), fl.err)
			writeError(w, fl.status, errKind(fl.err), fl.err)
			return
		}
		s.respondEntry(w, "", source, fl.entry)
	case <-ctx.Done():
		// Detach: the flight keeps running under the server context and
		// will fill the cache for whoever asks next.
		writeError(w, http.StatusGatewayTimeout, errKind(ctx.Err()), ctx.Err())
	}
}

// diskGet consults the persistent cache tier after a memory miss: a
// verified body is decoded, promoted into the memory cache and served
// with X-Cache: disk. Any defect (corruption was already quarantined by
// the tier itself, decode failure lands here) reads as a miss.
func (s *Server) diskGet(cacheKey string) *entry {
	if s.disk == nil {
		return nil
	}
	raw, err := s.disk.Get(cacheKey)
	if err != nil {
		return nil
	}
	wire, _, _, err := engine.DecodeResponseJSON(raw)
	if err != nil {
		return nil
	}
	e := newEntry(cacheKey, raw, wire)
	s.cache.put(e)
	return e
}

// runFlight is the leader's generation goroutine. It runs under the
// server's lifetime context — never a request's — bounded by
// MaxTimeout, so waiter cancellation can never abort shared work. The
// leader's deadline does steer admission: a flight that cannot start
// before it is shed for every waiter (they would all time out anyway).
// minTier/gateTier carry the request's quality floor.
func (s *Server) runFlight(fl *flight, ereq engine.Request, deadline time.Time, minTier engine.Tier, gateTier bool) {
	defer s.wg.Done()
	if _, err := s.adm.acquire(deadline, s.draining.Load, s.base.Done()); err != nil {
		s.group.finish(fl, nil, err, errStatus(err))
		return
	}
	defer s.adm.release()

	ctx, cancel := context.WithTimeout(s.base, s.cfg.MaxTimeout)
	defer cancel()

	s.generations.Add(1)
	ereq.Observer = func(it engine.Iteration) { fl.hub.publish(engine.IterationWire(it)) }
	s.applyBudget(ereq.Options)
	genStart := time.Now()
	resp, err := s.eng.Generate(ctx, ereq)
	s.adm.observeGen(time.Since(genStart))
	if err != nil {
		s.group.finish(fl, nil, err, errStatus(err))
		return
	}
	tier := resp.Tier()
	backend := ""
	if resp.Formulation != nil {
		backend = resp.Formulation.Backend
	}
	s.recordQuality(backend, tier, resp.WorstRelError())
	if gateTier && tier < minTier {
		s.group.finish(fl, nil, &tierError{got: tier, want: minTier}, http.StatusUnprocessableEntity)
		return
	}
	wire := engine.ResponseWire(resp)
	raw, err := engine.EncodeWireJSON(wire)
	if err != nil {
		s.group.finish(fl, nil, err, http.StatusUnprocessableEntity)
		return
	}
	e := newEntry(fl.key, raw, wire)
	if budgetDegraded(resp) {
		// The server budget degraded this result. The waiters get it —
		// partial under the tier contract beats nothing — but it never
		// enters either cache tier: the next request regenerates and may
		// finish under a lighter load.
		s.budgetDegraded.Add(1)
		s.group.finish(fl, e, nil, 0)
		return
	}
	s.cache.put(e)
	if s.disk != nil && !resp.Degraded() {
		_ = s.disk.Put(fl.key, raw) // best effort: a failed write costs a later miss
	}
	s.group.finish(fl, e, nil, 0)
}

// applyBudget clamps a request's solve budget to the server's. It only
// lowers the limit, so it never changes what a converged run generates
// — only how much work may be spent generating it before the result
// degrades.
func (s *Server) applyBudget(opts *engine.Options) {
	if b := s.cfg.SolveBudget; b > 0 && (opts.MaxSolves == 0 || opts.MaxSolves > b) {
		opts.MaxSolves = b
	}
}

// budgetDegraded reports whether a degraded response carries a solve-
// budget fault — the signature of the server budget (rather than a
// client's allow_degraded request) having cut the generation short.
func budgetDegraded(resp *engine.Response) bool {
	if !resp.Degraded() {
		return false
	}
	for _, res := range []*engine.Result{resp.Num, resp.Den} {
		if res == nil {
			continue
		}
		for _, ev := range res.Quality.Events {
			var berr *engine.BudgetError
			if ev.Kind == engine.EventFault && errors.As(ev.Err, &berr) && berr.Kind == "solves" {
				return true
			}
		}
	}
	return false
}

// respondEntry writes a finished entry: the cached body verbatim for
// plain requests, or a replayed event stream for streaming ones.
func (s *Server) respondEntry(w http.ResponseWriter, mode, source string, e *entry) {
	if mode != "" {
		st := newStreamWriter(w, mode)
		var wire engine.WireResponse
		if err := json.Unmarshal(e.body, &wire); err != nil {
			st.fail(http.StatusInternalServerError, "generation", err)
			return
		}
		for _, ev := range wireEvents(&wire) {
			st.event(ev)
		}
		st.result(source, e.body)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", source)
	w.Header().Set("X-Quality-Tier", e.tier)
	w.Header().Set("X-Worst-Rel-Error", e.worst)
	_, _ = w.Write(e.body)
}

// wireEvents reconstructs the iteration event sequence of a finished
// response in generation order (numerator pass, then denominator), with
// the same contiguous seq numbering a live stream produces.
func wireEvents(wr *engine.WireResponse) []streamEvent {
	var evs []streamEvent
	for _, r := range []*engine.WireResult{wr.Num, wr.Den} {
		if r == nil {
			continue
		}
		for _, it := range r.Iterations {
			evs = append(evs, streamEvent{Seq: len(evs), Iteration: it})
		}
	}
	return evs
}

// streamMode resolves the response shape: query parameter beats body
// field; Accept: text/event-stream selects SSE when neither is set.
func streamMode(r *http.Request, bodyStream string) string {
	mode := r.URL.Query().Get("stream")
	if mode == "" {
		mode = bodyStream
	}
	if mode == "" && strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		mode = "sse"
	}
	switch mode {
	case "", "ndjson", "sse":
		return mode
	}
	return "invalid"
}

// streamFlight streams a running flight: replayed history first, then
// live events, then the final result (or error) as the closing event.
// A request deadline or client disconnect detaches the subscriber only.
func (s *Server) streamFlight(ctx context.Context, w http.ResponseWriter, mode, source string, fl *flight) {
	// Buffer comfortably above any real iteration count (MaxIterations
	// defaults to 64 per polynomial) so only a truly stuck reader lags.
	hist, ch := fl.hub.subscribe(1024)
	if ch != nil {
		defer fl.hub.unsubscribe(ch)
	}
	st := newStreamWriter(w, mode)
	last := -1
	for _, ev := range hist {
		st.event(ev)
		last = ev.Seq
	}
	for ch != nil {
		select {
		case ev, ok := <-ch:
			if !ok {
				ch = nil
				break
			}
			st.event(ev)
			last = ev.Seq
		case <-ctx.Done():
			st.fail(http.StatusGatewayTimeout, errKind(ctx.Err()), ctx.Err())
			return
		}
	}
	// The hub closed on us: either the flight finished, or we lagged and
	// were detached. Wait out the flight (with the request deadline
	// still in force), backfill whatever we missed, then close out.
	select {
	case <-fl.done:
	case <-ctx.Done():
		st.fail(http.StatusGatewayTimeout, errKind(ctx.Err()), ctx.Err())
		return
	}
	if fl.err != nil {
		// A shed flight never published an event, so the headers are
		// still open for the Retry-After contract.
		setRetryAfter(w.Header(), fl.err)
		st.fail(fl.status, errKind(fl.err), fl.err)
		return
	}
	for _, ev := range fl.hub.snapshot(last) {
		st.event(ev)
	}
	st.result(source, fl.entry.body)
}

// streamWriter renders the event protocol in NDJSON or SSE framing.
// Events: {"event":"iteration","seq":N,"iteration":{...}} per
// iteration, then exactly one {"event":"result","cache":...,"result":
// {...}} or {"event":"error","status":...,"kind":...,"error":...}.
type streamWriter struct {
	w     http.ResponseWriter
	f     http.Flusher
	mode  string
	wrote bool
}

func newStreamWriter(w http.ResponseWriter, mode string) *streamWriter {
	st := &streamWriter{w: w, mode: mode}
	st.f, _ = w.(http.Flusher)
	if mode == "sse" {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	return st
}

func (st *streamWriter) emit(name string, payload any) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return
	}
	if st.mode == "sse" {
		fmt.Fprintf(st.w, "event: %s\ndata: %s\n\n", name, raw)
	} else {
		fmt.Fprintf(st.w, "%s\n", raw)
	}
	st.wrote = true
	if st.f != nil {
		st.f.Flush()
	}
}

func (st *streamWriter) event(ev streamEvent) {
	st.emit("iteration", struct {
		Event     string               `json:"event"`
		Seq       int                  `json:"seq"`
		Iteration engine.WireIteration `json:"iteration"`
	}{"iteration", ev.Seq, ev.Iteration})
}

func (st *streamWriter) result(source string, body []byte) {
	st.emit("result", struct {
		Event  string          `json:"event"`
		Cache  string          `json:"cache"`
		Result json.RawMessage `json:"result"`
	}{"result", source, json.RawMessage(body)})
}

func (st *streamWriter) fail(status int, kind string, err error) {
	// Before any event is written the plain error shape (with its real
	// HTTP status) is still available; mid-stream the status line is
	// gone, so the error becomes the closing event.
	if !st.wrote {
		writeError(st.w, status, kind, err)
		return
	}
	st.emit("error", struct {
		Event  string `json:"event"`
		Status int    `json:"status"`
		Kind   string `json:"kind"`
		Error  string `json:"error"`
	}{"error", status, kind, err.Error()})
}
