package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bode"
	"repro/internal/paper"
	"repro/internal/tablefmt"
	"repro/pkg/engine"
)

// runTables regenerates the data behind every table and figure in the
// paper's evaluation:
//
//	-table 1a    OTA coefficients, unit-circle interpolation (round-off failure)
//	-table 1b    OTA normalized coefficients, single scale pair (valid window)
//	-table 2a    µA741 denominator, first adaptive iteration
//	-table 2b    µA741 denominator, second adaptive iteration
//	-table 3     µA741 denominator, remaining iterations
//	-fig 2       µA741 Bode magnitude/phase: interpolated vs direct AC
//	-timing      §3.3 per-iteration cost with and without eq. (17) reduction
//	-all         everything above (default when no flag given)
//
// The data itself is produced by internal/paper (where the shape claims
// are asserted by tests); this command only renders it.
func runTables(args []string, stdout, stderr io.Writer) int {
	c := newCommand("tables", stdout, stderr)
	table := c.String("table", "", "table id: 1a, 1b, 2a, 2b or 3")
	fig := c.String("fig", "", "figure id: 2")
	timing := c.Bool("timing", false, "per-iteration timing (§3.3)")
	all := c.Bool("all", false, "regenerate everything")
	if code, ok := c.parse(args); !ok {
		return code
	}
	switch *table {
	case "", "1a", "1b", "2a", "2b", "3":
	default:
		fmt.Fprintf(stderr, "tables: unknown table %q (want 1a, 1b, 2a, 2b or 3)\n", *table)
		return 2
	}
	switch *fig {
	case "", "2":
	default:
		fmt.Fprintf(stderr, "tables: unknown figure %q (want 2)\n", *fig)
		return 2
	}
	if *table == "" && *fig == "" && !*timing {
		*all = true
	}
	want := func(id string) bool { return *all || *table == id }

	var t1 *paper.Table1
	if want("1a") || want("1b") {
		var err error
		t1, err = paper.OTATable1()
		if err != nil {
			return c.fail(err)
		}
	}
	if want("1a") {
		table1a(stdout, t1)
	}
	if want("1b") {
		table1b(stdout, t1)
	}
	if want("2a") || want("2b") || want("3") {
		if err := tables23(stdout, want("2a"), want("2b"), want("3")); err != nil {
			return c.fail(err)
		}
	}
	if *all || *fig == "2" {
		if err := fig2(stdout); err != nil {
			return c.fail(err)
		}
	}
	if *all || *timing {
		if err := timingTable(stdout); err != nil {
			return c.fail(err)
		}
	}
	return 0
}

func table1a(w io.Writer, t1 *paper.Table1) {
	tb := tablefmt.New(
		"Table 1a — OTA differential gain, interpolation on the unit circle\n"+
			"(imaginary residue ~ the real parts: round-off has destroyed the high-order coefficients)",
		"s^i", "Numerator", "Denominator")
	for i := range t1.UnitNum.Raw {
		tb.Rowf(fmt.Sprintf("s%d", i), t1.UnitNum.Raw[i], t1.UnitDen.Raw[i])
	}
	fmt.Fprintln(w, tb)
}

func table1b(w io.Writer, t1 *paper.Table1) {
	tb := tablefmt.New(
		fmt.Sprintf("Table 1b — OTA normalized coefficients, fixed scales f=%.3g g=%.3g\n"+
			"(* marks the valid region: ≥ 6 significant digits)", t1.FScale, t1.GScale),
		"s^i", "Numerator", "", "Denominator", "")
	mark := func(i, lo, hi int) string {
		if i >= lo && i <= hi {
			return "*"
		}
		return ""
	}
	for i := range t1.FixedNum.Normalized {
		tb.Rowf(fmt.Sprintf("s%d", i),
			t1.FixedNum.Normalized[i], mark(i, t1.NumLo, t1.NumHi),
			t1.FixedDen.Normalized[i], mark(i, t1.DenLo, t1.DenHi))
	}
	fmt.Fprintln(w, tb)
}

func tables23(w io.Writer, want2a, want2b, want3 bool) error {
	den, m, err := paper.UA741Denominator(false)
	if err != nil {
		return err
	}
	printIteration := func(idx int, title string) {
		if idx >= len(den.Iterations) {
			fmt.Fprintf(w, "%s: (algorithm converged in %d iterations)\n\n", title, len(den.Iterations))
			return
		}
		it := den.Iterations[idx]
		tb := tablefmt.New(
			fmt.Sprintf("%s — f=%.4g, g=%.4g, K=%d, valid region s^%d..s^%d",
				title, it.FScale, it.GScale, it.K, it.Lo, it.Hi),
			"s^i", "Normalized", "Denormalized", "")
		den2 := it.Normalized.Denormalize(it.FScale, it.GScale, m)
		for i := it.Offset; i < it.Offset+it.K && i < len(it.Normalized); i++ {
			mark := ""
			if i >= it.Lo && i <= it.Hi {
				mark = "*"
			}
			tb.Rowf(fmt.Sprintf("s%d", i), it.Normalized[i], den2[i], mark)
		}
		fmt.Fprintln(w, tb)
	}
	if want2a {
		printIteration(0, "Table 2a — µA741 denominator, first interpolation")
	}
	if want2b {
		printIteration(1, "Table 2b — µA741 denominator, second interpolation")
	}
	if want3 {
		for k := 2; k < len(den.Iterations); k++ {
			printIteration(k, fmt.Sprintf("Table 3 — µA741 denominator, interpolation %d", k+1))
		}
	}
	fmt.Fprintln(w, den)
	fmt.Fprintln(w)
	return nil
}

func fig2(w io.Writer) error {
	c, spec := paper.UA741()
	d, err := paper.Fig2(c, spec, bode.LogSpace(1, 1e8, 33))
	if err != nil {
		return err
	}
	tb := tablefmt.New(
		"Fig. 2 — µA741 voltage gain: interpolated coefficients vs electrical simulator",
		"freq (Hz)", "interp mag (dB)", "interp phase (°)", "simulator mag (dB)", "simulator phase (°)")
	for i := range d.Freqs {
		tb.Rowf(fmt.Sprintf("%.4g", d.Freqs[i]),
			fmt.Sprintf("%.4f", d.Interp[i].MagDB), fmt.Sprintf("%.2f", d.Interp[i].PhaseDeg),
			fmt.Sprintf("%.4f", d.Direct[i].MagDB), fmt.Sprintf("%.2f", d.Direct[i].PhaseDeg))
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintf(w, "max deviation: %.3g dB, %.3g°  (paper: \"perfect matching can be observed\")\n\n",
		d.MagErrDB, d.PhsErr)
	return nil
}

func timingTable(w io.Writer) error {
	tb := tablefmt.New(
		"§3.3 — per-iteration cost of the µA741 denominator\n"+
			"(the paper: 3.9 s per iteration without reduction; 3.9/2.3/0.9 s with —\n"+
			"absolute numbers differ on modern hardware, the decreasing shape is the claim)",
		"iteration", "K (points)", "time, reduction ON", "K (points)", "time, reduction OFF")
	withRed, _, err := paper.UA741Denominator(false)
	if err != nil {
		return err
	}
	withoutRed, _, err := paper.UA741Denominator(true)
	if err != nil {
		return err
	}
	n := len(withRed.Iterations)
	if m := len(withoutRed.Iterations); m > n {
		n = m
	}
	cell := func(r *engine.Result, i int) (string, string) {
		if i >= len(r.Iterations) {
			return "", ""
		}
		it := r.Iterations[i]
		return fmt.Sprint(it.K), fmt.Sprintf("%.2f ms", float64(it.Elapsed)/float64(time.Millisecond))
	}
	for i := 0; i < n; i++ {
		k1, t1 := cell(withRed, i)
		k2, t2 := cell(withoutRed, i)
		tb.Rowf(i+1, k1, t1, k2, t2)
	}
	fmt.Fprintln(w, tb)
	return nil
}
