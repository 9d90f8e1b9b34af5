// Command simplify runs reference-controlled Simplification Before
// Generation (paper §1) on a circuit: elements whose contribution to the
// network function over a frequency band is negligible are replaced by
// opens or shorts, with the error measured against the full circuit's
// response.
//
// Usage:
//
//	simplify -circuit ua741 -maxdb 1 -maxdeg 10
//	simplify -netlist amp.sp -in in -out out -fmin 1e2 -fmax 1e7 -emit simplified.sp
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/cli"
	"repro/internal/bode"
	"repro/internal/netlist"
	"repro/internal/sbg"
	"repro/internal/tablefmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code
// (2 for usage errors, 1 for runtime failures).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simplify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		builtin = fs.String("circuit", "", "built-in circuit: ua741 or ota")
		netFile = fs.String("netlist", "", "netlist file (alternative to -circuit)")
		inNode  = fs.String("in", "inp", "input node")
		innNode = fs.String("inn", "inn", "negative input node (empty = single-ended)")
		outNode = fs.String("out", "out", "output node")
		fMin    = fs.Float64("fmin", 10, "band start (Hz)")
		fMax    = fs.Float64("fmax", 1e7, "band end (Hz)")
		points  = fs.Int("n", 15, "band sample count")
		maxDB   = fs.Float64("maxdb", 0.5, "magnitude error budget (dB)")
		maxDeg  = fs.Float64("maxdeg", 5, "phase error budget (degrees)")
		emit    = fs.String("emit", "", "write the simplified circuit to this netlist file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "simplify:", err)
		return 1
	}

	ckt, code := cli.LoadCircuit(fs, *builtin, *netFile)
	if ckt == nil {
		return code
	}
	fmt.Fprintln(stdout, ckt.Stats())

	freqs := bode.LogSpace(*fMin, *fMax, *points)
	ref, err := sbg.ReferenceResponse(ckt, *inNode, *innNode, *outNode, freqs)
	if err != nil {
		return fail(err)
	}
	res, err := sbg.Simplify(ckt, *inNode, *innNode, *outNode, freqs, ref,
		sbg.Config{MaxErrDB: *maxDB, MaxPhaseDeg: *maxDeg})
	if err != nil {
		return fail(err)
	}

	tb := tablefmt.New(
		fmt.Sprintf("accepted simplifications (budget %.2g dB / %.2g° over %.3g..%.3g Hz)",
			*maxDB, *maxDeg, *fMin, *fMax),
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
			return fail(err)
		}
		if err := netlist.Format(f, res.Circuit); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "simplified netlist written to %s\n", *emit)
	}
	return 0
}
