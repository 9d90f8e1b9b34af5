package main

import (
	"fmt"
	"io"
	"math/cmplx"

	"repro/internal/sensitivity"
	"repro/internal/tablefmt"
)

// runSens ranks the element sensitivities of a circuit's network
// function — which parameters move the response most, the input for
// design centering and tolerance assignment. The 2·|elements|+1 design
// points run as one warm-started engine batch sweep; the trailing stats
// line reports the amortization.
//
//	refgen sens -circuit ota -top 10
//	refgen sens -netlist amp.sp -tf vgain -in in -out out -fmin 1e3 -fmax 1e8
func runSens(args []string, stdout, stderr io.Writer) int {
	c := newCommand("sens", stdout, stderr)
	sf := specFlags{tf: "diffgain", in: "inp", inn: "inn", out: "out", fMin: 10, fMax: 1e8}
	sf.declare(c.FlagSet, "circuit", "netlist", "tf", "in", "inn", "out", "fmin", "fmax")
	points := c.Int("points", 9, "frequency points")
	top := c.Int("top", 15, "number of elements to list (0 = all)")
	ckt, freqs, code := c.load(args, &sf, points)
	if ckt == nil {
		return code
	}

	sens, batch, err := sensitivity.AnalyzeBatch(ckt, sf.spec(), freqs, sensitivity.Config{})
	if err != nil {
		return c.fail(err)
	}

	n := len(sens)
	if *top > 0 && *top < n {
		n = *top
	}
	tb := tablefmt.New(
		fmt.Sprintf("normalized sensitivities |S| = |d ln H / d ln x| over %.3g..%.3g Hz (top %d of %d)",
			sf.fMin, sf.fMax, n, len(sens)),
		"element", "max |S|", "|S| mid-band")
	mid := *points / 2
	for _, s := range sens[:n] {
		tb.Rowf(s.Element,
			fmt.Sprintf("%.4f", s.MaxAbs),
			fmt.Sprintf("%.4f", cmplx.Abs(s.S[mid])))
	}
	fmt.Fprintln(stdout, tb)
	fmt.Fprintf(stdout, "batch: %d points, %d warm starts, %d cold fallbacks, %.1f solves/point\n",
		len(batch.Points), batch.WarmStarts, batch.ColdFallbacks, batch.SolvesPerPoint())
	return 0
}
