package main

import (
	"fmt"
	"io"

	"repro/internal/montecarlo"
	"repro/internal/tablefmt"
)

// runTolerance runs Monte Carlo tolerance analysis on a circuit's
// frequency response: every element value is perturbed within ±tol,
// references are regenerated per sample through the engine's
// warm-started batch sweep, and the per-frequency magnitude quantiles
// are reported along with the sweep's amortization stats.
//
//	refgen tolerance -circuit ota -tol 0.1 -n 200
//	refgen tolerance -netlist amp.sp -tf vgain -in in -out out -tol 0.05
func runTolerance(args []string, stdout, stderr io.Writer) int {
	c := newCommand("tolerance", stdout, stderr)
	sf := specFlags{tf: "diffgain", in: "inp", inn: "inn", out: "out", fMin: 10, fMax: 1e8}
	sf.declare(c.FlagSet, "circuit", "netlist", "tf", "in", "inn", "out", "fmin", "fmax")
	points := c.Int("points", 13, "frequency points")
	tol := c.Float64("tol", 0.05, "relative element tolerance (±)")
	samples := c.Int("n", 100, "Monte Carlo samples")
	seed := c.Int64("seed", 1, "random seed")
	ckt, freqs, code := c.load(args, &sf, points)
	if ckt == nil {
		return code
	}

	st, err := montecarlo.Run(ckt, sf.spec(), freqs, montecarlo.Config{
		Samples: *samples, Tolerance: *tol, Seed: *seed,
	})
	if err != nil {
		return c.fail(err)
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
