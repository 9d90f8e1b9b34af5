// Command refgen generates numerical references (network-function
// coefficients) for a circuit read from a SPICE-like netlist.
//
// Usage:
//
//	refgen -netlist amp.sp -tf diffgain -in inp -inn inn -out out
//	refgen -netlist rc.sp -tf vgain -in in -out out -method fixed -fscale 1e9
//
// Methods:
//
//	adaptive  the paper's adaptive scaling algorithm (default)
//	fixed     single scale pair (-fscale/-gscale; Table 1b style)
//	unit      unscaled unit-circle interpolation (Table 1a style)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/roots"
	"repro/internal/tablefmt"
	"repro/pkg/engine"

	// Register the fault-injecting backend wrapper so robustness scenarios
	// run from the command line: -backend fault:nodal.
	_ "repro/internal/fault"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes the
// requested generation and writes the report to stdout. The return
// value is the process exit code (2 for usage errors, 1 for runtime
// failures).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("refgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		netFile    = fs.String("netlist", "", "netlist file (required)")
		tfKind     = fs.String("tf", "vgain", "transfer function: vgain, diffgain, transz or mna")
		inNode     = fs.String("in", "in", "input node (positive input for diffgain)")
		innNode    = fs.String("inn", "", "negative input node (diffgain)")
		outNode    = fs.String("out", "out", "output node")
		backend    = fs.String("backend", "", "formulation backend (default: auto from -tf); registered: nodal, mna, exact")
		method     = fs.String("method", "adaptive", "interpolation method: adaptive, fixed or unit")
		fscale     = fs.Float64("fscale", 0, "frequency scale factor (fixed method; 0 = 1/mean C)")
		gscale     = fs.Float64("gscale", 0, "conductance scale factor (fixed method; 0 = 1/mean G)")
		sigDigits  = fs.Int("sigdigits", 6, "required significant digits σ")
		maxIter    = fs.Int("maxiter", 0, "iteration budget per polynomial (0 = engine default of 64; large circuits need more)")
		verbose    = fs.Bool("v", false, "print the iteration trace")
		progress   = fs.Bool("progress", false, "stream one line per iteration to stderr as it completes")
		showPoles  = fs.Bool("poles", false, "extract poles and zeros from the generated references (adaptive method only)")
		parallel   = fs.Int("parallel", 0, "evaluation worker count: 0 = all CPUs, 1 = serial (results are identical either way)")
		allowDeg   = fs.Bool("allow-degraded", false, "return a degraded partial result instead of failing when frames or watchdogs give up")
		exactRec   = fs.Bool("exact-recovery", false, "snap certified coefficients to rationals and verify them against the exact-arithmetic oracle, upgrading matches to the exact tier (adaptive method)")
		minTier    = fs.String("min-tier", "", "fail (exit 1) unless the result reaches this quality tier: numeric, certified or exact (adaptive method)")
		timeout    = fs.Duration("timeout", 0, "abort generation after this long (0 = no limit); partial results are printed")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the generation to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile (after generation) to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *netFile == "" {
		fmt.Fprintln(stderr, "refgen: -netlist is required")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "refgen:", err)
		return 1
	}
	var tierGate engine.Tier
	gateTier := *minTier != ""
	if gateTier {
		t, err := engine.ParseTier(*minTier)
		if err != nil {
			fmt.Fprintln(stderr, "refgen: -min-tier:", err)
			return 2
		}
		tierGate = t
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(err)
		}
		// Written on the way out so the profile covers the generation.
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "refgen: memprofile:", err)
			}
			f.Close()
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := engine.Config{
		Backend: *backend,
		Options: engine.Options{SigDigits: *sigDigits, MaxIterations: *maxIter, Parallelism: *parallel, AllowDegraded: *allowDeg, ExactRecovery: *exactRec},
	}
	eng, err := engine.New(cfg)
	if err != nil {
		return fail(err)
	}

	ckt, err := engine.LoadNetlist(*netFile)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, ckt.Stats())

	spec := engine.Spec{Kind: *tfKind, In: *inNode, Inn: *innNode, Out: *outNode}
	form, err := eng.Formulate(ckt, spec)
	if err != nil {
		return fail(err)
	}
	tf := form.TF
	fmt.Fprintf(stdout, "transfer function: %s (order bound %d)\n\n", tf.Name, tf.Den.OrderBound)

	switch *method {
	case "adaptive":
		req := engine.Request{Circuit: ckt, Spec: spec, Formulation: form}
		if *progress {
			req.Observer = func(it engine.Iteration) {
				fmt.Fprintf(stderr, "refgen: iteration %-7s fscale=%.4g gscale=%.4g K=%d new=%d\n",
					it.Purpose, it.FScale, it.GScale, it.K, it.NewValid)
			}
		}
		resp, err := eng.Generate(ctx, req)
		if resp != nil {
			if resp.Num != nil {
				printResult(stdout, resp.Num, *verbose)
			}
			if resp.Den != nil {
				printResult(stdout, resp.Den, *verbose)
			}
		}
		if err != nil {
			return fail(err)
		}
		if gateTier {
			if got := resp.Tier(); got < tierGate {
				return fail(fmt.Errorf("quality tier %s below required minimum %s", got, tierGate))
			}
		}
		if *showPoles {
			printRoots(stdout, "zeros", resp.Num.Poly())
			printRoots(stdout, "poles", resp.Den.Poly())
		}
	case "fixed":
		fsc, gsc := engine.DefaultScales(ckt)
		if *fscale != 0 {
			fsc = *fscale
		}
		if *gscale != 0 {
			gsc = *gscale
		}
		num, den, err := eng.Interpolate(ctx, form, fsc, gsc)
		if err != nil {
			return fail(err)
		}
		printInterp(stdout, "numerator", num, *sigDigits)
		printInterp(stdout, "denominator", den, *sigDigits)
	case "unit":
		num, den, err := eng.Interpolate(ctx, form, 1, 1)
		if err != nil {
			return fail(err)
		}
		printInterp(stdout, "numerator", num, *sigDigits)
		printInterp(stdout, "denominator", den, *sigDigits)
	default:
		return fail(fmt.Errorf("unknown method %q", *method))
	}
	return 0
}

func printResult(w io.Writer, r *engine.Result, verbose bool) {
	fmt.Fprintln(w, r)
	for _, d := range r.Warnings() {
		fmt.Fprintf(w, "warning: %s\n", d)
	}
	if r.WarmStarted {
		fmt.Fprintf(w, "warm start: replayed %d frames, %d adaptation iterations\n",
			r.ReplayedFrames, len(r.Iterations)-r.ReplayedFrames)
	} else if cf := r.ColdFallback(); cf != "" {
		fmt.Fprintf(w, "cold fallback: %s\n", cf)
	}
	faults := r.Faults()
	if r.Degraded() {
		fmt.Fprintf(w, "DEGRADED: %d fault events, %d frame retries, %d frames failed\n",
			len(faults), r.FrameRetries, r.FailedFrames)
	} else if r.FrameRetries > 0 {
		fmt.Fprintf(w, "recovered: %d frame retries healed %d fault events\n",
			r.FrameRetries, len(faults))
	}
	for _, ev := range faults {
		fmt.Fprintf(w, "  failure: %s\n", ev)
	}
	if n := len(r.Quality.Events) - len(faults); n > 0 && verbose {
		for _, ev := range r.Quality.Events {
			if ev.Kind != engine.EventFault {
				fmt.Fprintf(w, "  event: %s\n", ev)
			}
		}
	}
	if worst := r.Quality.WorstRelError(); worst > 0 {
		fmt.Fprintf(w, "quality: tier %s, worst relative error %.1e\n", r.Quality.Tier, worst)
	} else {
		fmt.Fprintf(w, "quality: tier %s\n", r.Quality.Tier)
	}
	if r.CacheHits+r.CacheMisses > 0 {
		fmt.Fprintf(w, "joint cache: %d hits, %d misses — %d effective factorizations for %d solves\n",
			r.CacheHits, r.CacheMisses, r.TotalSolves-r.CacheHits, r.TotalSolves)
	}
	tb := tablefmt.New("", "s^i", "status", "coefficient", "digits", "tier", "rel err")
	for i, c := range r.Coeffs {
		tier, relErr := "", ""
		if i < len(r.Quality.Coefficients) {
			bar := r.Quality.Coefficients[i]
			tier = bar.Tier.String()
			if bar.RelError > 0 {
				relErr = fmt.Sprintf("%.1e", bar.RelError)
			}
		}
		switch {
		case c.Status == engine.Valid:
			tb.Rowf(fmt.Sprintf("s^%d", i), "valid", c.Value, fmt.Sprintf("%.1f", float64(6)+c.Quality), tier, relErr)
		case c.Structural():
			tb.Rowf(fmt.Sprintf("s^%d", i), "structural", "0", "", tier, relErr)
		case c.Status == engine.Negligible:
			tb.Rowf(fmt.Sprintf("s^%d", i), "negligible", fmt.Sprintf("|p| < %v", c.Bound), "", tier, relErr)
		default:
			tb.Rowf(fmt.Sprintf("s^%d", i), "UNRESOLVED", "", "", "", "")
		}
	}
	fmt.Fprintln(w, tb)
	if verbose {
		it := tablefmt.New("iterations", "#", "purpose", "fscale", "gscale", "K", "region", "new", "solves", "eval")
		for k, rec := range r.Iterations {
			region := "-"
			if rec.Lo <= rec.Hi {
				region = fmt.Sprintf("s^%d..s^%d", rec.Lo, rec.Hi)
			}
			it.Rowf(k, rec.Purpose, fmt.Sprintf("%.4g", rec.FScale), fmt.Sprintf("%.4g", rec.GScale), rec.K, region, rec.NewValid,
				rec.Solves, rec.EvalElapsed.Round(time.Microsecond))
		}
		fmt.Fprintln(w, it)
		fmt.Fprintln(w, r.CoverageMap())
	}
}

func printInterp(w io.Writer, name string, res engine.InterpResult, sigDigits int) {
	lo, hi, ok := engine.ValidRegion(res.Normalized, sigDigits)
	fmt.Fprintf(w, "%s: %s\n", name, res)
	tb := tablefmt.New("", "s^i", "normalized", "denormalized", "valid")
	for i := range res.Normalized {
		valid := ""
		if ok && i >= lo && i <= hi {
			valid = "*"
		}
		tb.Rowf(fmt.Sprintf("s^%d", i), res.Raw[i], res.Denormalized[i], valid)
	}
	fmt.Fprintln(w, tb)
}

func printRoots(w io.Writer, label string, p engine.Poly) {
	r, err := roots.Find(p, roots.Config{})
	if err != nil {
		fmt.Fprintf(w, "%s: %v\n", label, err)
		return
	}
	tb := tablefmt.New(label, "#", "real (rad/s)", "imag (rad/s)", "|s|/2π (Hz)")
	for i, z := range r {
		tb.Rowf(i+1,
			fmt.Sprintf("%.6g", real(z)),
			fmt.Sprintf("%.6g", imag(z)),
			fmt.Sprintf("%.6g", cmplx.Abs(z)/(2*math.Pi)))
	}
	fmt.Fprintln(w, tb)
}
