// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every output, and prints one JSON line of
// results as the last line of standard output (a readable report goes to
// standard error):
//
//	perfbench --workload ua741-cold --seed 1 --seconds 10 --trace 0
//
// Workloads: ua741-cold (cold µA741 generations), ladder40-sweep (warm
// batch sweeps over an RC ladder) and serve-mixed (hot and cold requests
// against the HTTP service). --trace 0 measures the end-to-end metrics;
// --trace 1 runs the same op sequence untraced and then traced, reports
// the per-layer metrics and writes the spans under .bench_build/. See
// README.md for the metric glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric names a reported number and its unit.
type metric struct{ name, unit string }

// endToEndMetrics and layerMetrics are the metrics of --trace 0 and
// --trace 1, in report order; BENCHMARK.json lists the same names.
var endToEndMetrics = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"max_rss_mb", "MiB"},
	{"hit_p50_us", "us"},
	{"miss_p50_ms", "ms"},
}

var layerMetrics = []metric{
	{"netlist.parse_us", "us"},
	{"engine.key_us", "us"},
	{"server.decode_us", "us"},
	{"server.hit_self_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.generations_per_req", "ratio"},
	{"server.evictions_per_req", "ratio"},
	{"server.singleflight_shared", "count"},
	{"server.key_splits", "count"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.queue_wait_p99_ms", "ms"},
	{"server.sheds", "count"},
	{"server.miss_engine_share", "ratio"},
	{"engine.formulate_ms", "ms"},
	{"engine.encode_ms", "ms"},
	{"engine.batch.warm_ratio", "ratio"},
	{"engine.batch.cold_fallbacks", "count"},
	{"engine.batch.solves_per_point", "count"},
	{"nodal.solves_per_op", "count"},
	{"nodal.factorizations_per_op", "count"},
	{"nodal.joint_hit_ratio", "ratio"},
	{"nodal.busy_ms_per_op", "ms"},
	{"nodal.us_per_solve", "us"},
	{"nodal.share", "ratio"},
	{"core.frames_per_op", "count"},
	{"core.useful_frame_ratio", "ratio"},
	{"core.replayed_frame_ratio", "ratio"},
	{"core.frame_self_ms_per_op", "ms"},
	{"core.outside_frames_ms_per_op", "ms"},
	{"core.frame_retries_per_op", "count"},
	{"trace.overhead_ms", "ms"},
	{"trace.unattributed_ms_per_op", "ms"},
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed uint64) workload{
	"ua741-cold":     newUA741Cold,
	"ladder40-sweep": newLadderSweep,
	"serve-mixed":    newServeMixed,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: ua741-cold, ladder40-sweep or serve-mixed")
		seed     = fs.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds  = fs.Float64("seconds", 10, "measured duration of the run")
		trace    = fs.Int("trace", 0, "1: per-layer run (untraced then traced), 0: end-to-end metrics")
		writeRef = fs.String("write-reference", "", "generate the µA741 reference into this file and exit")
		spread   = fs.Bool("spread", false, "read result lines on stdin and print each metric's median and quartiles")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *writeRef != "":
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *spread:
		if err := printSpread(os.Stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	newW, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (ua741-cold, ladder40-sweep, serve-mixed), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var (
		out *outcome
		err error
	)
	if *trace == 1 {
		out, err = traced(newW(*seed), dur, filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", *name, *seed)))
	} else {
		out, err = untraced(newW(*seed), dur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	specs := endToEndMetrics
	if *trace == 1 {
		specs = layerMetrics
	}
	fmt.Fprintf(stderr, "%s seed %d: %d ops, %d failed\n", *name, *seed, out.attempted, out.failed)
	for _, note := range out.notes {
		fmt.Fprintln(stderr, "  "+note)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range specs {
		v := out.metrics[m.name]
		metrics[m.name] = value{v, m.unit}
		fmt.Fprintf(stderr, "  %-32s %14.6g %s\n", m.name, v, m.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printSpread reads benchmark result lines (the last JSON line of each
// run) and prints, per metric, the median, the quartiles of Python's
// statistics.quantiles(n=4) and the quartile spread as a share of the
// median — the steadiness figure BENCHMARK.json bounds.
func printSpread(r io.Reader, w io.Writer) error {
	type line struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(r)
	values := map[string][]float64{}
	runs := 0
	for dec.More() {
		var l line
		if err := dec.Decode(&l); err != nil {
			return err
		}
		runs++
		for k, v := range l.Metrics {
			values[k] = append(values[k], v.Value)
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d runs\n%-32s %12s %12s %12s %8s\n", runs, "metric", "median", "q1", "q3", "spread")
	for _, k := range names {
		xs := values[k]
		med := median(xs)
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-32s %12.6g %12.6g %12.6g %8.4f\n", k, med, q1, q3, ratio(q3-q1, med))
	}
	return nil
}
