package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/netlist"
	"repro/internal/sbg"
	"repro/internal/tablefmt"
)

// runSimplify runs reference-controlled Simplification Before
// Generation (paper §1) on a circuit: elements whose contribution to the
// network function over a frequency band is negligible are replaced by
// opens or shorts, with the error measured against the full circuit's
// response.
//
//	refgen simplify -circuit ua741 -maxdb 1 -maxdeg 10
//	refgen simplify -netlist amp.sp -in in -out out -fmin 1e2 -fmax 1e7 -emit simplified.sp
func runSimplify(args []string, stdout, stderr io.Writer) int {
	c := newCommand("simplify", stdout, stderr)
	sf := specFlags{in: "inp", inn: "inn", out: "out", fMin: 10, fMax: 1e7}
	sf.declare(c.FlagSet, "circuit", "netlist", "in", "inn", "out", "fmin", "fmax")
	points := c.Int("n", 15, "band sample count")
	maxDB := c.Float64("maxdb", 0.5, "magnitude error budget (dB)")
	maxDeg := c.Float64("maxdeg", 5, "phase error budget (degrees)")
	emit := c.String("emit", "", "write the simplified circuit to this netlist file")
	ckt, freqs, code := c.load(args, &sf, points)
	if ckt == nil {
		return code
	}

	ref, err := sbg.ReferenceResponse(ckt, sf.in, sf.inn, sf.out, freqs)
	if err != nil {
		return c.fail(err)
	}
	res, err := sbg.Simplify(ckt, sf.in, sf.inn, sf.out, freqs, ref,
		sbg.Config{MaxErrDB: *maxDB, MaxPhaseDeg: *maxDeg})
	if err != nil {
		return c.fail(err)
	}

	tb := tablefmt.New(
		fmt.Sprintf("accepted simplifications (budget %.2g dB / %.2g° over %.3g..%.3g Hz)",
			*maxDB, *maxDeg, sf.fMin, sf.fMax),
		"element", "op", "worst dev (dB)")
	for _, a := range res.Actions {
		tb.Rowf(a.Element, a.Op, fmt.Sprintf("%.4f", a.WorstDB))
	}
	fmt.Fprintln(stdout, tb)
	fmt.Fprintf(stdout, "elements: %d -> %d (%.0f%% removed)\n",
		res.Before, res.After, 100*float64(res.Before-res.After)/float64(res.Before))

	if *emit != "" {
		f, err := os.Create(*emit)
		if err != nil {
			return c.fail(err)
		}
		if err := netlist.Format(f, res.Circuit); err != nil {
			f.Close()
			return c.fail(err)
		}
		if err := f.Close(); err != nil {
			return c.fail(err)
		}
		fmt.Fprintf(stdout, "simplified netlist written to %s\n", *emit)
	}
	return 0
}
