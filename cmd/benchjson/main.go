// Command benchjson converts `go test -bench` output into a JSON
// snapshot, and can verify a fresh run against a committed baseline.
//
// Snapshot mode (writes JSON to stdout):
//
//	go test -bench=. -benchtime=1x -run='^$' ./... | benchjson > BENCH_baseline.json
//
// Check mode (exit 1 when the run lost benchmarks present in the
// baseline or any benchmark failed to report):
//
//	go test -bench=. -benchtime=1x -run='^$' ./... | benchjson -check BENCH_baseline.json
//
// Compare mode (exit 1 when a deterministic counter regressed):
//
//	benchjson -compare BENCH_baseline.json fresh.json
//
// Compare diffs only the deterministic work counters (solves/op,
// factorizations/op, cache hit/miss counts, interpolations/op) between
// two snapshots: those are exact properties of the algorithm, identical
// on every host, so any increase is a real regression. Timings (ns/op
// and friends) stay advisory — shared CI runners are too noisy to gate
// on. For the steady-state hot-path benchmarks (BenchmarkEvalBatch*,
// BenchmarkDetSparseUA741, BenchmarkDetPlanned{Biquad,Ladder40,UA741},
// BenchmarkDetLanesUA741 and BenchmarkDetSolveLanesLadder40),
// the cold structural-window matchings (BenchmarkStructuralWindowUA741),
// the µA741 wire encoding (BenchmarkWireEncodeUA741) and the encoding of
// a generated µA741 response (BenchmarkEncodeResponseUA741), allocs/op
// is also gated lower-is-better: those ops have an exact allocation
// count (zero for the primed hot path, one buffer for the encoder, the
// wire form's few for a response), so any count above the baseline
// means the op started allocating again. The CI bench smoke job runs check mode for
// set membership and compare mode for the counters.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark result line.
type Entry struct {
	Name string  `json:"name"`
	N    int64   `json:"n"`
	NsOp float64 `json:"ns_per_op"`
	// Extra holds additional reported metrics (B/op, allocs/op,
	// ReportMetric units) keyed by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Snapshot is the JSON document.
type Snapshot struct {
	Note       string  `json:"note"`
	Benchmarks []Entry `json:"benchmarks"`
}

// deterministicUnits lists the ReportMetric units that are exact
// work counters rather than measurements: equal on every host for the
// same code, and therefore safe to gate CI on.
var deterministicUnits = map[string]bool{
	"solves/op":              true,
	"factorizations/op":      true,
	"cache-hits/op":          true,
	"cache-misses/op":        true,
	"interpolations/op":      true,
	"warm-starts/op":         true,
	"cold-fallbacks/op":      true,
	"solves/point":           true,
	"singleflight-shared/op": true,
	// Overload-path counters from BenchmarkServerShed: every op is an
	// immediate refusal, so sheds/op is exactly 1 and queue-wait-ns/op
	// exactly 0 — despite the ns suffix it is not a timing, it is the
	// invariant that the shed fast path never queues.
	"sheds/op":         true,
	"queue-wait-ns/op": true,
}

// allocGated matches the benchmarks whose allocs/op is deterministic:
// the steady-state hot-path ops — the batched point evaluations, the
// full factorization, the planned (compiled-replay) factorization and
// the lane replays, with and without a right-hand side, through a reused
// workspace — are primed so the measured op performs
// zero heap allocations, making the count an exact property of the code
// (not of the host or the GC) and safe to gate. The structural-window
// matchings of a cold µA741 formulation run in one fresh scratch per op,
// so their count is exact too, and so are the wire encoder's single
// pre-sized buffer and a response's conversion to the wire form.
// Everywhere else allocs/op stays advisory, like timings.
var allocGated = regexp.MustCompile(`^Benchmark(EvalBatch|DetSparseUA741$|DetPlanned(Biquad|Ladder40|UA741)$|DetLanesUA741$|DetSolveLanesLadder40$|StructuralWindowUA741$|WireEncodeUA741$|EncodeResponseUA741$)`)

// higherIsBetterUnits flips the regression direction for counters where
// a drop is the regression: losing warm starts means a sweep fell back
// to cold discovery.
var higherIsBetterUnits = map[string]bool{
	"warm-starts/op": true,
	// Losing flight sharing means identical concurrent requests started
	// paying for duplicate generations.
	"singleflight-shared/op": true,
}

// benchLine matches e.g.
//
//	BenchmarkDetSparseUA741-8   123   456789 ns/op   12 B/op   3 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parse(r *bufio.Scanner) ([]Entry, error) {
	var out []Entry
	for r.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(r.Text()))
		if m == nil {
			continue
		}
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		e := Entry{Name: m[1], N: n, Extra: map[string]float64{}}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				e.NsOp = v
			} else {
				e.Extra[unit] = v
			}
		}
		if len(e.Extra) == 0 {
			e.Extra = nil
		}
		out = append(out, e)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func readSnapshot(path string) (Snapshot, error) {
	var snap Snapshot
	raw, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return snap, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// compare diffs the deterministic counters of two snapshots. It returns
// the number of regressions (new counter above old) after writing a
// per-counter report to stdout.
func compare(old, fresh Snapshot, stdout io.Writer) int {
	oldBy := make(map[string]Entry, len(old.Benchmarks))
	for _, e := range old.Benchmarks {
		oldBy[e.Name] = e
	}
	regressions, improvements, compared := 0, 0, 0
	for _, e := range fresh.Benchmarks {
		base, ok := oldBy[e.Name]
		if !ok {
			continue
		}
		units := make([]string, 0, len(e.Extra))
		for unit := range e.Extra {
			gated := deterministicUnits[unit] ||
				(unit == "allocs/op" && allocGated.MatchString(e.Name))
			if gated {
				if _, has := base.Extra[unit]; has {
					units = append(units, unit)
				}
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			ov, nv := base.Extra[unit], e.Extra[unit]
			compared++
			worse := nv > ov
			if higherIsBetterUnits[unit] {
				worse = nv < ov
			}
			switch {
			case nv == ov:
			case worse:
				regressions++
				fmt.Fprintf(stdout, "REGRESSION %s %s: %g -> %g (%+.1f%%)\n", e.Name, unit, ov, nv, 100*(nv-ov)/ov)
			default:
				improvements++
				fmt.Fprintf(stdout, "improved   %s %s: %g -> %g (%+.1f%%)\n", e.Name, unit, ov, nv, 100*(nv-ov)/ov)
			}
		}
	}
	fmt.Fprintf(stdout, "benchjson: compared %d deterministic counters: %d regressed, %d improved\n",
		compared, regressions, improvements)
	return regressions
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	check := fs.String("check", "", "baseline JSON to verify the run against (set membership, not timings)")
	doCompare := fs.Bool("compare", false, "compare deterministic counters of two snapshots: benchjson -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *doCompare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchjson: -compare needs exactly two snapshot paths: old.json new.json")
			return 2
		}
		old, err := readSnapshot(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		fresh, err := readSnapshot(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		if compare(old, fresh, stdout) > 0 {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchjson: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	entries, err := parse(sc)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if len(entries) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines on stdin")
		return 1
	}

	if *check == "" {
		snap := Snapshot{
			Note:       "benchmark set snapshot; timings are host-specific and not asserted by CI",
			Benchmarks: entries,
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		return 0
	}

	base, err := readSnapshot(*check)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	got := make(map[string]bool, len(entries))
	for _, e := range entries {
		got[e.Name] = true
	}
	var missing []string
	for _, b := range base.Benchmarks {
		if !got[b.Name] {
			missing = append(missing, b.Name)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(stderr, "benchjson: %d baseline benchmark(s) missing from this run:\n", len(missing))
		for _, n := range missing {
			fmt.Fprintln(stderr, "  -", n)
		}
		return 1
	}
	fmt.Fprintf(stdout, "benchjson: ok — %d benchmarks ran, all %d baseline benchmarks present\n", len(entries), len(base.Benchmarks))
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
