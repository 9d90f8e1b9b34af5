// Command tolerance runs Monte Carlo tolerance analysis on a circuit's
// frequency response: every element value is perturbed within ±tol,
// references are regenerated per sample through the engine's warm-started
// batch sweep, and the per-frequency magnitude quantiles are reported
// along with the sweep's amortization stats.
//
// Usage:
//
//	tolerance -circuit ota -tol 0.1 -n 200
//	tolerance -netlist amp.sp -tf vgain -in in -out out -tol 0.05
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/cli"
	"repro/internal/bode"
	"repro/internal/montecarlo"
	"repro/internal/tablefmt"
	"repro/pkg/engine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code
// (2 for usage errors, 1 for runtime failures).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tolerance", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		builtin = fs.String("circuit", "", "built-in circuit: ua741 or ota")
		netFile = fs.String("netlist", "", "netlist file (alternative to -circuit)")
		tfKind  = fs.String("tf", "diffgain", "transfer function: vgain, diffgain, transz or mna")
		inNode  = fs.String("in", "inp", "input node")
		innNode = fs.String("inn", "inn", "negative input node (diffgain)")
		outNode = fs.String("out", "out", "output node")
		fMin    = fs.Float64("fmin", 10, "band start (Hz)")
		fMax    = fs.Float64("fmax", 1e8, "band end (Hz)")
		points  = fs.Int("points", 13, "frequency points")
		tol     = fs.Float64("tol", 0.05, "relative element tolerance (±)")
		samples = fs.Int("n", 100, "Monte Carlo samples")
		seed    = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tolerance:", err)
		return 1
	}

	ckt, code := cli.LoadCircuit(fs, *builtin, *netFile)
	if ckt == nil {
		return code
	}
	fmt.Fprintln(stdout, ckt.Stats())

	spec := engine.Spec{Kind: *tfKind, In: *inNode, Inn: *innNode, Out: *outNode}
	freqs := bode.LogSpace(*fMin, *fMax, *points)
	st, err := montecarlo.Run(ckt, spec, freqs, montecarlo.Config{
		Samples: *samples, Tolerance: *tol, Seed: *seed,
	})
	if err != nil {
		return fail(err)
	}

	tb := tablefmt.New(
		fmt.Sprintf("magnitude quantiles over %d samples at ±%.0f%% element tolerance",
			st.Samples, *tol*100),
		"freq (Hz)", "p5 (dB)", "median (dB)", "p95 (dB)", "spread (dB)")
	for _, q := range st.Magnitude {
		tb.Rowf(fmt.Sprintf("%.4g", q.FreqHz),
			fmt.Sprintf("%.3f", q.P05DB),
			fmt.Sprintf("%.3f", q.P50DB),
			fmt.Sprintf("%.3f", q.P95DB),
			fmt.Sprintf("%.3f", q.P95DB-q.P05DB))
	}
	fmt.Fprintln(stdout, tb)
	spread, at := st.WorstSpreadDB()
	fmt.Fprintf(stdout, "worst spread: %.3f dB at %.4g Hz", spread, at)
	if st.Failures > 0 {
		fmt.Fprintf(stdout, "  (%d failed samples excluded)", st.Failures)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "batch: %d samples, %d warm starts, %d cold fallbacks, %.1f solves/point\n",
		st.Samples+st.Failures, st.WarmStarts, st.ColdFallbacks,
		float64(st.TotalSolves)/float64(max(st.Samples, 1)))
	return 0
}
