// Command sens ranks the element sensitivities of a circuit's network
// function — which parameters move the response most, the input for
// design centering and tolerance assignment. The 2·|elements|+1 design
// points run as one warm-started engine batch sweep; the trailing stats
// line reports the amortization.
//
// Usage:
//
//	sens -circuit ota -top 10
//	sens -netlist amp.sp -tf vgain -in in -out out -fmin 1e3 -fmax 1e8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/cmplx"
	"os"

	"repro/cmd/internal/cli"
	"repro/internal/bode"
	"repro/internal/sensitivity"
	"repro/internal/tablefmt"
	"repro/pkg/engine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code
// (2 for usage errors, 1 for runtime failures).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sens", flag.ContinueOnError)
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
		points  = fs.Int("points", 9, "frequency points")
		top     = fs.Int("top", 15, "number of elements to list (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sens:", err)
		return 1
	}

	ckt, code := cli.LoadCircuit(fs, *builtin, *netFile)
	if ckt == nil {
		return code
	}
	fmt.Fprintln(stdout, ckt.Stats())

	spec := engine.Spec{Kind: *tfKind, In: *inNode, Inn: *innNode, Out: *outNode}
	freqs := bode.LogSpace(*fMin, *fMax, *points)
	sens, batch, err := sensitivity.AnalyzeBatch(ckt, spec, freqs, sensitivity.Config{})
	if err != nil {
		return fail(err)
	}

	n := len(sens)
	if *top > 0 && *top < n {
		n = *top
	}
	tb := tablefmt.New(
		fmt.Sprintf("normalized sensitivities |S| = |d ln H / d ln x| over %.3g..%.3g Hz (top %d of %d)",
			*fMin, *fMax, n, len(sens)),
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
