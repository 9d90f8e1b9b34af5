// Command bodecmp reproduces the paper's Fig. 2 validation for any
// circuit: it generates numerator/denominator references with the
// adaptive algorithm, computes the Bode response from the coefficients,
// computes the same response by direct AC analysis (the "electrical
// simulator" path), and reports both plus their worst-case deviation.
//
// Usage:
//
//	bodecmp -circuit ua741                  # built-in µA741, Fig. 2 setup
//	bodecmp -circuit ota
//	bodecmp -netlist amp.sp -tf vgain -in in -out out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/cli"
	"repro/internal/bode"
	"repro/internal/tablefmt"
	"repro/pkg/engine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code
// (2 for usage errors, 1 for runtime failures).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bodecmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		builtin = fs.String("circuit", "", "built-in circuit: ua741 or ota")
		netFile = fs.String("netlist", "", "netlist file (alternative to -circuit)")
		tfKind  = fs.String("tf", "diffgain", "transfer function: vgain, diffgain or transz")
		inNode  = fs.String("in", "inp", "input node")
		innNode = fs.String("inn", "inn", "negative input node (diffgain)")
		outNode = fs.String("out", "out", "output node")
		fMin    = fs.Float64("fmin", 1, "sweep start (Hz)")
		fMax    = fs.Float64("fmax", 1e8, "sweep end (Hz)")
		points  = fs.Int("n", 41, "number of frequency points")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bodecmp:", err)
		return 1
	}

	ckt, code := cli.LoadCircuit(fs, *builtin, *netFile)
	if ckt == nil {
		return code
	}
	fmt.Fprintln(stdout, ckt.Stats())

	ctx := context.Background()
	eng, err := engine.New(engine.Config{})
	if err != nil {
		return fail(err)
	}
	spec := engine.Spec{Kind: *tfKind, In: *inNode, Inn: *innNode, Out: *outNode}
	resp, err := eng.Generate(ctx, engine.Request{Circuit: ckt, Spec: spec})
	if err != nil {
		return fail(err)
	}
	num, den := resp.Num, resp.Den
	fmt.Fprintln(stdout, num)
	fmt.Fprintln(stdout, den)

	freqs := bode.LogSpace(*fMin, *fMax, *points)
	fromCoeffs, err := bode.FromPolys(num.Poly(), den.Poly(), freqs)
	if err != nil {
		return fail(err)
	}

	// Direct AC path: independent MNA solve per frequency point.
	h, err := eng.ACResponse(ctx, ckt, spec, freqs)
	if err != nil {
		return fail(err)
	}
	fromAC := bode.FromComplexResponse(freqs, h)

	tb := tablefmt.New("\nBode comparison (Fig. 2)", "freq (Hz)", "interp mag (dB)", "interp phase (°)", "AC mag (dB)", "AC phase (°)")
	for i := range freqs {
		tb.Rowf(
			fmt.Sprintf("%.4g", freqs[i]),
			fmt.Sprintf("%.4f", fromCoeffs[i].MagDB),
			fmt.Sprintf("%.3f", fromCoeffs[i].PhaseDeg),
			fmt.Sprintf("%.4f", fromAC[i].MagDB),
			fmt.Sprintf("%.3f", fromAC[i].PhaseDeg),
		)
	}
	fmt.Fprintln(stdout, tb)

	magErr, phErr, err := bode.Compare(fromCoeffs, fromAC)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "max deviation: %.3g dB, %.3g°\n", magErr, phErr)
	return 0
}
