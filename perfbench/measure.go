package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one benchmark scenario. A run sets it up, runs units of
// work (an op, or a whole sweep for ladder40-sweep) until stop says so,
// checks the outputs, and derives per-layer metrics from a traced run.
type workload interface {
	// setup builds fresh state: fixtures, engine or server, references,
	// primed caches. A non-nil tracer selects the traced configuration.
	setup(tr *tracer) error
	// run executes units in order while !stop(elapsed, units started).
	run(stop func(elapsed time.Duration, units int) bool) (*segment, error)
	// verify runs the output checks that are too costly for the timed
	// window on what the segment kept, returning failed ops and notes.
	verify(seg *segment) (failed int, notes []string)
	// layers derives the per-layer metrics of a traced segment.
	layers(seg *segment, tr *tracer) map[string]float64
	// close releases the state setup built.
	close()
}

// segment is what one run of units produced.
type segment struct {
	units   int
	elapsed time.Duration
	// lat holds every op's latency; hits and misses split them by how
	// the op was served (see README.md).
	lat, hits, misses []time.Duration
	failed            int
	notes             []string
	// counts are the deterministic work counts of the segment: equal for
	// every run of the same units, traced or not.
	counts map[string]int64
	// kept is workload-specific state for verify and layers.
	kept any
}

// setupReps is how many times a run builds its state; setup_s is the
// median.
const setupReps = 9

// untraced is the --trace 0 run: setup_s from setupReps builds, then
// one timed window, then the output checks.
func untraced(w workload, dur time.Duration) (*outcome, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.setup(nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()
	runtime.GC()
	before, err := readUsage()
	if err != nil {
		return nil, err
	}
	seg, err := w.run(func(el time.Duration, _ int) bool { return el >= dur })
	if err != nil {
		return nil, err
	}
	after, err := readUsage()
	if err != nil {
		return nil, err
	}
	failed, notes := w.verify(seg)
	ops := float64(len(seg.lat))
	out := &outcome{
		attempted: len(seg.lat),
		failed:    seg.failed + failed,
		notes:     append(seg.notes, notes...),
		metrics: map[string]float64{
			"setup_s":         median(setups),
			"ops_per_s":       ops / seg.elapsed.Seconds(),
			"op_p50_ms":       quantile(durationsMs(seg.lat), 0.5),
			"op_p90_ms":       quantile(durationsMs(seg.lat), 0.9),
			"cpu_ms_per_op":   float64(after.cpu-before.cpu) / float64(time.Millisecond) / ops,
			"alloc_kb_per_op": float64(after.alloc-before.alloc) / 1024 / ops,
			"max_rss_mb":      float64(after.maxRSSKiB) / 1024,
			"hit_p50_us":      quantile(durationsMs(seg.hits), 0.5) * 1000,
			"miss_p50_ms":     quantile(durationsMs(seg.misses), 0.5),
		},
	}
	out.notes = append(out.notes, fmt.Sprintf("%d units, %d ops (%d hits, %d misses) in %v; %d setups %v",
		seg.units, len(seg.lat), len(seg.hits), len(seg.misses), seg.elapsed.Round(time.Millisecond), setupReps, roundAll(setups)))
	return out, nil
}

// traced is the --trace 1 run: an untraced segment of half the time,
// then the same units again traced on fresh state. The deterministic
// counts of the two must agree exactly; the difference of their op
// medians is the tracing overhead.
func traced(w workload, dur time.Duration, tracePath string) (*outcome, error) {
	if err := w.setup(nil); err != nil {
		return nil, err
	}
	plain, err := w.run(func(el time.Duration, _ int) bool { return el >= dur/2 })
	w.close()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	if err := w.setup(tr); err != nil {
		return nil, err
	}
	defer w.close()
	seg, err := w.run(func(_ time.Duration, units int) bool { return units >= plain.units })
	if err != nil {
		return nil, err
	}
	failed, notes := w.verify(seg)
	out := &outcome{
		attempted: len(seg.lat),
		failed:    plain.failed + seg.failed + failed,
		notes:     append(append(plain.notes, seg.notes...), notes...),
		metrics:   w.layers(seg, tr),
	}
	for _, k := range sortedKeys(plain.counts, seg.counts) {
		if plain.counts[k] != seg.counts[k] {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("count %s: untraced %d, traced %d", k, plain.counts[k], seg.counts[k]))
		}
	}
	p50u := quantile(durationsMs(plain.lat), 0.5)
	p50t := quantile(durationsMs(seg.lat), 0.5)
	out.metrics["trace.overhead_ms"] = p50t - p50u
	out.notes = append(out.notes,
		fmt.Sprintf("%d units, %d ops; op p50 untraced %.4g ms, traced %.4g ms", seg.units, len(seg.lat), p50u, p50t),
		fmt.Sprintf("deterministic counts (equal in both runs unless listed above): %v", seg.counts))
	if err := tr.write(tracePath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	out.notes = append(out.notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), tracePath))
	return out, nil
}

// outcome is a finished run.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

// usage is a snapshot of the process counters a run reports per op.
type usage struct {
	cpu       time.Duration // user + system CPU time
	alloc     uint64        // runtime.MemStats.TotalAlloc
	maxRSSKiB int64         // peak resident set size
}

func readUsage() (usage, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	return usage{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:     ms.TotalAlloc,
		maxRSSKiB: ru.Maxrss,
	}, nil
}

func sortedKeys(ms ...map[string]int64) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.4gs", x)
	}
	return out
}

// perOp divides a total by the op count of a segment.
func perOp(total float64, seg *segment) float64 { return ratio(total, float64(len(seg.lat))) }

// msOf converts a duration to milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
