// Chaos mode: loadgen spawns refserve itself and kills it — repeatedly,
// mid-burst, under disk-fault injection — then audits what survived.
//
// Each cycle starts a fresh refserve process against the SAME disk
// cache directory (that is the point: state carries across crashes),
// drives a mixed burst at it — valid hot and cold generations, malformed
// payloads, oversized bodies, and on some cycles a slow-loris connection
// that never finishes its request — and delivers SIGTERM while all of
// that is in flight. The process must exit 0 within the drain deadline
// plus slack regardless. Between cycles the harness scrubs the disk
// cache offline, quarantining any torn entry the kill left behind.
//
// Gates (see chaosReport.gate): every exit clean, zero 5xx other than
// intentional sheds (503 + Retry-After), every 200 carrying a valid
// quality tier, and zero corrupt disk-cache entries after the final
// scrub.
package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/blobstore"
)

type chaosConfig struct {
	bin          string
	cycles       int
	dir          string
	faultOneIn   int
	drainTimeout time.Duration
	seed         int64
	// shedGateMs bounds the median client-observed shed latency
	// (0 disables the timing gate — wall-clock medians mean nothing
	// on a box that is itself saturated, e.g. under a parallel
	// `go test ./...` run).
	shedGateMs float64
}

// chaosReport is the machine-readable chaos outcome (-json).
type chaosReport struct {
	Mode      string `json:"mode"`
	Cycles    int    `json:"cycles"`
	StateDir  string `json:"state_dir"`
	Requests  int    `json:"requests"`
	OK200     int    `json:"responses_200"`
	Client4xx int    `json:"responses_4xx"`
	// Sheds are intentional 503s (Retry-After present): queue-full,
	// deadline, or draining. They are the overload contract working.
	// ShedP50Ms/ShedP99Ms are their client-observed latency percentiles.
	// Sheds are immediate refusals, so the median is gated (default
	// 50ms): a shed that queued toward its deadline would sit at
	// deadline scale, hundreds of ms up. The bound is looser than the
	// sub-10ms a quiet box shows (TestShedLatencyUnderOverload pins
	// that; BenchmarkServerShed pins the decision path itself at ns
	// scale) because here every core is deliberately saturated with
	// generation work, so the round trip measures scheduler contention
	// too. The tail is reported but not gated.
	Sheds     int     `json:"sheds"`
	ShedP50Ms float64 `json:"shed_p50_ms"`
	ShedP99Ms float64 `json:"shed_p99_ms"`
	// Status5xx counts everything >= 500 that is NOT a shed. Gate: 0.
	Status5xx int `json:"status_5xx"`
	// BadTier counts 200s whose X-Quality-Tier is not one of the four
	// documented tiers. Gate: 0.
	BadTier int `json:"bad_tier_responses"`
	// KilledInFlight counts transport errors — connections the kill or
	// drain force-close tore down under the client. Expected, not gated.
	KilledInFlight int `json:"killed_in_flight"`
	// DirtyExits counts cycles where refserve exited nonzero or had to
	// be SIGKILLed past the drain deadline. Gate: 0.
	DirtyExits int `json:"dirty_exits"`
	// Disk-cache audit, cumulative over the per-cycle scrubs plus the final
	// verify. Quarantined entries are detected corruption (fine — the
	// evidence is preserved and out of the serving path); Corrupt counts
	// entries still live after the final scrub. Gate: 0 corrupt.
	CacheOK          int `json:"cache_entries_ok"`
	CacheQuarantined int `json:"cache_entries_quarantined"`
	CacheCorrupt     int `json:"cache_entries_corrupt"`

	// shedGateMs mirrors chaosConfig.shedGateMs for gate(); it is not
	// part of the serialized report.
	shedGateMs float64
}

// gate prints any violated invariant and returns the process exit code.
func (r *chaosReport) gate(stderr io.Writer) int {
	code := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(stderr, "loadgen: CHAOS GATE FAIL: "+format+"\n", args...)
		code = 1
	}
	if r.DirtyExits > 0 {
		fail("%d dirty exits (nonzero status or SIGKILL past drain deadline)", r.DirtyExits)
	}
	if r.Status5xx > 0 {
		fail("%d unintentional 5xx responses (sheds carry Retry-After and do not count)", r.Status5xx)
	}
	if r.shedGateMs > 0 && r.ShedP50Ms >= r.shedGateMs {
		fail("shed median latency %.2fms >= %gms (sheds must answer immediately — a shed that queues defeats its purpose)", r.ShedP50Ms, r.shedGateMs)
	}
	if r.BadTier > 0 {
		fail("%d responses with an undocumented quality tier", r.BadTier)
	}
	if r.CacheCorrupt > 0 {
		fail("%d corrupt result-cache entries still live after the final scrub", r.CacheCorrupt)
	}
	if r.OK200 == 0 {
		fail("no request ever succeeded — the harness never actually exercised the server")
	}
	return code
}

func runChaos(cfg chaosConfig, stdout, stderr io.Writer) (*chaosReport, error) {
	if cfg.bin == "" {
		return nil, fmt.Errorf("-chaos requires -chaos-bin (path to a refserve binary)")
	}
	if _, err := os.Stat(cfg.bin); err != nil {
		return nil, fmt.Errorf("-chaos-bin: %w", err)
	}
	if cfg.cycles < 1 {
		cfg.cycles = 1
	}
	dir := cfg.dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "loadgen-chaos-*"); err != nil {
			return nil, err
		}
	}
	cacheDir := filepath.Join(dir, "results")

	fxs, err := buildFixtures([]string{"biquad", "ladder40"})
	if err != nil {
		return nil, err
	}

	rep := &chaosReport{Mode: "chaos", Cycles: cfg.cycles, StateDir: dir, shedGateMs: cfg.shedGateMs}
	fmt.Fprintf(stdout, "chaos: %d crash/restart cycles, state in %s\n", cfg.cycles, dir)

	var shedLats []time.Duration
	for cycle := 0; cycle < cfg.cycles; cycle++ {
		faulty := cfg.faultOneIn > 0 && cycle%2 == 1
		loris := cycle%3 == 2
		if err := chaosCycle(cfg, rep, fxs, dir, cacheDir, cycle, faulty, loris, &shedLats, stdout, stderr); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", cycle, err)
		}
		// Offline scrub between cycles: quarantine whatever the kill tore.
		if _, q, err := blobstore.Scrub(nil, cacheDir); err == nil {
			rep.CacheQuarantined += q
		}
	}

	// Final audit: after the last scrub, nothing corrupt may remain live.
	okc, corrupt, err := blobstore.Verify(nil, cacheDir)
	if err != nil {
		return nil, fmt.Errorf("final cache verify: %w", err)
	}
	rep.CacheOK, rep.CacheCorrupt = okc, corrupt

	sort.Slice(shedLats, func(i, j int) bool { return shedLats[i] < shedLats[j] })
	rep.ShedP50Ms = percentile(shedLats, 0.50).Seconds() * 1e3
	rep.ShedP99Ms = percentile(shedLats, 0.99).Seconds() * 1e3

	fmt.Fprintf(stdout, "chaos: %d requests (%d ok, %d 4xx, %d sheds p50 %.2fms, %d killed in flight), %d unintentional 5xx, %d dirty exits\n",
		rep.Requests, rep.OK200, rep.Client4xx, rep.Sheds, rep.ShedP50Ms, rep.KilledInFlight, rep.Status5xx, rep.DirtyExits)
	fmt.Fprintf(stdout, "chaos: disk cache after final scrub: %d ok / %d corrupt (%d quarantined en route)\n",
		rep.CacheOK, rep.CacheCorrupt, rep.CacheQuarantined)
	return rep, nil
}

// chaosCycle runs one start → burst → SIGTERM → verify-exit round.
func chaosCycle(cfg chaosConfig, rep *chaosReport, fxs []fixture,
	dir, cacheDir string, cycle int, faulty, loris bool,
	shedLats *[]time.Duration, stdout, stderr io.Writer) error {

	portfile := filepath.Join(dir, fmt.Sprintf("port-%d", cycle))
	os.Remove(portfile)
	args := []string{
		"-addr", "127.0.0.1:0",
		"-portfile", portfile,
		"-cache-dir", cacheDir,
		"-drain-timeout", cfg.drainTimeout.String(),
		// Tight admission bounds so the burst actually sheds.
		"-max-concurrent", "1",
		"-max-queue", "1",
		"-max-body-bytes", "65536",
	}
	if faulty {
		args = append(args,
			"-store-fault-seed", strconv.FormatInt(cfg.seed+int64(cycle), 10),
			"-store-fault-one-in", strconv.Itoa(cfg.faultOneIn))
	}
	var out bytes.Buffer
	cmd := exec.Command(cfg.bin, args...)
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		return err
	}

	url, err := waitPortfile(portfile, 10*time.Second)
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("%w\nserver output:\n%s", err, out.String())
	}
	// Enough idle connections for every worker: the default of 2 per
	// host would force most workers through a fresh TCP handshake per
	// request, inflating client-observed shed latency with connect
	// churn that has nothing to do with the server's shed path.
	tr := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	client := &http.Client{Transport: tr, Timeout: cfg.drainTimeout + 10*time.Second}
	defer tr.CloseIdleConnections()
	if err := waitHealthy(client, url, 5*time.Second); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("%w\nserver output:\n%s", err, out.String())
	}

	// The burst: valid traffic (hot + cold), malformed payloads, and
	// oversized bodies, all racing the SIGTERM below.
	var (
		stopc   = make(chan struct{})
		wg      sync.WaitGroup
		mu      sync.Mutex
		samples []sample
		coldSeq atomic.Int64
	)
	coldSeq.Store(cfg.seed*1_000_003 + int64(cycle)*7_919)
	record := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}
	worker := func(body func(i int) []byte, hot bool) {
		defer wg.Done()
		refused := 0
		for i := 0; ; i++ {
			select {
			case <-stopc:
				return
			default:
			}
			s := do(client, url, body(i), false, hot)
			record(s)
			// Once the kill lands the listener is gone; a few consecutive
			// transport errors mean the server is dead, not overloaded —
			// stop instead of hammering a closed port.
			if s.err != nil {
				if refused++; refused >= 3 {
					return
				}
			} else {
				refused = 0
			}
		}
	}
	hotBody := requestBody(fxs[0], 0, false, 0)
	wg.Add(1)
	go worker(func(int) []byte { return hotBody }, true)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go worker(func(int) []byte {
			return requestBody(fxs[1], coldSeq.Add(1), false, 0)
		}, false)
	}
	malformed := [][]byte{
		[]byte(`{`),
		[]byte(`null`),
		[]byte(`{"netlist":42}`),
		[]byte(`{"netlist":"x\nR1 a b 1k\n.end\n","spec":{"kind":"nope"}}`),
		[]byte("\x00\xff\xfe"),
	}
	wg.Add(1)
	go worker(func(i int) []byte { return malformed[i%len(malformed)] }, false)
	wg.Add(1)
	go worker(func(int) []byte { return bytes.Repeat([]byte("x"), 80<<10) }, false)

	var lorisConn net.Conn
	if loris {
		// A connection that sends headers, then a sliver of a large body,
		// then stalls forever. It must not be able to hold the drain open
		// past its deadline.
		if c, err := net.Dial("tcp", strings.TrimPrefix(url, "http://")); err == nil {
			lorisConn = c
			fmt.Fprintf(c, "POST /v1/generate HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/json\r\nContent-Length: 1000000\r\n\r\n{\"netli")
		}
	}

	// Let the burst establish in-flight work, then kill mid-flight.
	time.Sleep(250 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signaling refserve: %w", err)
	}

	// The process must exit cleanly within drain deadline + slack.
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	dirty := false
	select {
	case err := <-exited:
		if err != nil {
			dirty = true
			fmt.Fprintf(stderr, "chaos cycle %d: refserve exited dirty: %v\nserver output:\n%s", cycle, err, out.String())
		}
	case <-time.After(cfg.drainTimeout + 15*time.Second):
		dirty = true
		cmd.Process.Kill()
		<-exited
		fmt.Fprintf(stderr, "chaos cycle %d: refserve hung past drain deadline, SIGKILLed\nserver output:\n%s", cycle, out.String())
	}
	close(stopc)
	wg.Wait()
	if lorisConn != nil {
		lorisConn.Close()
	}
	if dirty {
		rep.DirtyExits++
	} else if !strings.Contains(out.String(), "refserve: drained") {
		rep.DirtyExits++
		fmt.Fprintf(stderr, "chaos cycle %d: exit 0 but no drained marker\nserver output:\n%s", cycle, out.String())
	}

	// Classify what the burst saw.
	var ok200, sheds, s5xx, c4xx, killed, badTier int
	for _, s := range samples {
		switch {
		case s.err != nil:
			killed++
		case s.shed:
			sheds++
			*shedLats = append(*shedLats, s.latency)
		case s.status >= 500:
			s5xx++
		case s.status == http.StatusOK:
			ok200++
			switch s.tier {
			case "exact", "certified", "numeric", "degraded":
			default:
				badTier++
			}
		case s.status >= 400:
			c4xx++
		}
	}
	rep.Requests += len(samples)
	rep.OK200 += ok200
	rep.Sheds += sheds
	rep.Status5xx += s5xx
	rep.Client4xx += c4xx
	rep.KilledInFlight += killed
	rep.BadTier += badTier
	mode := "clean"
	if faulty {
		mode = fmt.Sprintf("faults 1/%d", cfg.faultOneIn)
	}
	if loris {
		mode += "+loris"
	}
	fmt.Fprintf(stdout, "chaos cycle %d (%s): %d requests, %d ok, %d sheds, %d 4xx, %d killed, %d 5xx\n",
		cycle, mode, len(samples), ok200, sheds, c4xx, killed, s5xx)
	return nil
}

// waitPortfile polls for the refserve -portfile and returns the base URL.
func waitPortfile(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		raw, err := os.ReadFile(path)
		if err == nil && len(bytes.TrimSpace(raw)) > 0 {
			return "http://127.0.0.1:" + string(bytes.TrimSpace(raw)), nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return "", fmt.Errorf("refserve never wrote %s within %s", path, timeout)
}

func waitHealthy(client *http.Client, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("refserve at %s never became healthy within %s", url, timeout)
}
