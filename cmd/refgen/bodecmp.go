package main

import (
	"fmt"
	"io"

	"repro/internal/paper"
	"repro/internal/tablefmt"
)

// runBodecmp reproduces the paper's Fig. 2 validation for any circuit:
// it generates numerator/denominator references with the adaptive
// algorithm, computes the Bode response from the coefficients, computes
// the same response by direct AC analysis (the "electrical simulator"
// path), and reports both plus their worst-case deviation.
//
//	refgen bodecmp -circuit ua741                  # built-in µA741, Fig. 2 setup
//	refgen bodecmp -circuit ota
//	refgen bodecmp -netlist amp.sp -tf vgain -in in -out out
func runBodecmp(args []string, stdout, stderr io.Writer) int {
	c := newCommand("bodecmp", stdout, stderr)
	sf := specFlags{tf: "diffgain", in: "inp", inn: "inn", out: "out", fMin: 1, fMax: 1e8}
	sf.declare(c.FlagSet, "circuit", "netlist", "tf", "in", "inn", "out", "fmin", "fmax")
	points := c.Int("n", 41, "number of frequency points")
	ckt, freqs, code := c.load(args, &sf, points)
	if ckt == nil {
		return code
	}

	d, err := paper.Fig2(ckt, sf.spec(), freqs)
	if err != nil {
		return c.fail(err)
	}
	fmt.Fprintln(stdout, d.Resp.Num)
	fmt.Fprintln(stdout, d.Resp.Den)

	tb := tablefmt.New("\nBode comparison (Fig. 2)", "freq (Hz)", "interp mag (dB)", "interp phase (°)", "AC mag (dB)", "AC phase (°)")
	for i := range freqs {
		tb.Rowf(
			fmt.Sprintf("%.4g", freqs[i]),
			fmt.Sprintf("%.4f", d.Interp[i].MagDB),
			fmt.Sprintf("%.3f", d.Interp[i].PhaseDeg),
			fmt.Sprintf("%.4f", d.Direct[i].MagDB),
			fmt.Sprintf("%.3f", d.Direct[i].PhaseDeg),
		)
	}
	fmt.Fprintln(stdout, tb)
	fmt.Fprintf(stdout, "max deviation: %.3g dB, %.3g°\n", d.MagErrDB, d.PhsErr)
	return 0
}
