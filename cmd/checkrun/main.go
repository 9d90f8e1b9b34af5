// Command checkrun is the differential fuzzing harness: it generates
// randomized G/C/gm circuits, runs the full reference-generation
// pipeline on each, and validates every result against the invariant
// checker (internal/check), the exact Bareiss oracle (tractable sizes)
// and an independent MNA AC solve (all sizes). It exits nonzero when any
// invariant is violated, which makes it directly usable as a CI gate:
//
//	checkrun -n 50 -seed 1
//
// The sweep is fully deterministic for a given -seed, so a reported
// failure reproduces with the same flags.
//
// Exit codes: 0 = clean sweep; 1 = usage or setup error; 2 = invariant
// violations or trial failures; 3 = -timeout expired before the sweep
// finished (the partial summary still prints). A timed-out sweep that
// also found violations exits 2 — violations dominate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/circuits"
	"repro/pkg/engine"
)

type options struct {
	trials   int
	seed     int64
	minNodes int
	maxNodes int
	exactMax int
	timeout  time.Duration
	verbose  bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("checkrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.IntVar(&o.trials, "n", 25, "number of random circuits to sweep")
	fs.Int64Var(&o.seed, "seed", 1, "RNG seed (the sweep is deterministic per seed)")
	fs.IntVar(&o.minNodes, "nodes-min", 3, "smallest circuit size in nodes")
	fs.IntVar(&o.maxNodes, "nodes-max", 10, "largest circuit size in nodes")
	fs.IntVar(&o.exactMax, "exact-max", 9, "largest size cross-checked against the exact Bareiss oracle")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort the whole sweep after this long (0 = no limit)")
	fs.BoolVar(&o.verbose, "v", false, "report every trial, not only failures")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.trials < 1 {
		return o, fmt.Errorf("-n must be at least 1, got %d", o.trials)
	}
	if o.minNodes < 2 || o.maxNodes < o.minNodes {
		return o, fmt.Errorf("invalid node range %d..%d", o.minNodes, o.maxNodes)
	}
	return o, nil
}

// harness bundles the engines the sweep drives: the production pipeline
// and the exact-arithmetic oracle backend.
type harness struct {
	eng   *engine.Engine
	exact *engine.Engine
}

func newHarness() (*harness, error) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		return nil, err
	}
	ex, err := engine.New(engine.Config{Backend: "exact"})
	if err != nil {
		return nil, err
	}
	return &harness{eng: eng, exact: ex}, nil
}

// trial generates one random circuit and runs every applicable check,
// merging the outcome into rep. It returns the circuit size.
func (h *harness) trial(ctx context.Context, rng *rand.Rand, o options, rep *check.Report) (nodes int, err error) {
	nodes = o.minNodes + rng.Intn(o.maxNodes-o.minNodes+1)
	c := circuits.RandomGCgm(rng, nodes)
	in := "n0"
	out := fmt.Sprintf("n%d", nodes-1)
	spec := engine.Spec{Kind: "vgain", In: in, Out: out}

	form, err := h.eng.Formulate(c, spec)
	if err != nil {
		return nodes, fmt.Errorf("voltage gain setup: %w", err)
	}
	tf := form.TF

	// Serial and parallel generation must agree bit-for-bit; the serial
	// result is the reference for everything downstream.
	serial, err := h.eng.Generate(ctx, engine.Request{
		Circuit: c, Spec: spec, Formulation: form,
		Options: &engine.Options{Parallelism: 1},
	})
	if err != nil {
		return nodes, fmt.Errorf("generate (serial): %w", err)
	}
	num, den := serial.Num, serial.Den
	par, perr := h.eng.Generate(ctx, engine.Request{Circuit: c, Spec: spec, Formulation: form})
	if perr != nil {
		return nodes, fmt.Errorf("generate (parallel): %w", perr)
	}
	check.ParityResults(num, par.Num, rep)
	check.ParityResults(den, par.Den, rep)

	// The joint path (shared joint-form cache, the default above) must
	// reproduce a fully independent two-pass generation within the same
	// tolerance the Bareiss oracle is held to.
	indep, ierr := h.eng.Generate(ctx, engine.Request{
		Circuit: c, Spec: spec, Formulation: form,
		Options: &engine.Options{Parallelism: 1, NoJoint: true},
	})
	if ierr != nil {
		return nodes, fmt.Errorf("generate (independent): %w", ierr)
	}
	check.JointVsIndependent(num, den, indep.Num, indep.Den, 1e-4, rep)

	// Structural invariants on both polynomials.
	rep.Merge(check.Result(num, tf.Num.M, check.Options{}))
	rep.Merge(check.Result(den, tf.Den.M, check.Options{}))
	check.Window(num, tf.Num, rep)
	check.Window(den, tf.Den, rep)

	// Oracle cross-check where tractable, Bode-vs-AC everywhere.
	if nodes <= o.exactMax {
		oracle, err := h.exact.Formulate(c, spec)
		if err != nil {
			return nodes, fmt.Errorf("exact oracle: %w", err)
		}
		check.VsPoly(num, oracle.ExactNum, 1e-4, 4, rep)
		check.VsPoly(den, oracle.ExactDen, 1e-4, 4, rep)
		check.VsRatio(num, den, oracle.ExactNum, oracle.ExactDen, 1e-4, rep)

		// The accuracy certificates must be honest: every certified
		// error bar has to bound the measured deviation from the oracle.
		check.ErrorBars(num, oracle.ExactNum, rep)
		check.ErrorBars(den, oracle.ExactDen, rep)

		// Exact-recovery pass: rerun with the rational-snapping pass on;
		// upgraded coefficients must reproduce the oracle's renderings
		// bit for bit (check.ErrorBars enforces that for the exact tier),
		// and the rest of the quality contract must survive the rewrite.
		rec, rerr := h.eng.Generate(ctx, engine.Request{
			Circuit: c, Spec: spec, Formulation: form,
			Options: &engine.Options{Parallelism: 1, ExactRecovery: true},
		})
		if rerr != nil {
			return nodes, fmt.Errorf("generate (exact recovery): %w", rerr)
		}
		check.ErrorBars(rec.Num, oracle.ExactNum, rep)
		check.ErrorBars(rec.Den, oracle.ExactDen, rep)
		rep.Merge(check.Result(rec.Num, tf.Num.M, check.Options{}))
		rep.Merge(check.Result(rec.Den, tf.Den.M, check.Options{}))
		check.Window(rec.Num, tf.Num, rep)
		check.Window(rec.Den, tf.Den, rep)
	}
	check.BodeVsAC(c, "vgain", in, "", out, num, den, 0, 0, rep)
	return nodes, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "checkrun:", err)
		return 1
	}

	h, err := newHarness()
	if err != nil {
		fmt.Fprintln(stderr, "checkrun:", err)
		return 1
	}
	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	rng := rand.New(rand.NewSource(o.seed))
	total := &check.Report{}
	failures, done := 0, 0
	timedOut := false
	for i := 0; i < o.trials; i++ {
		if ctx.Err() != nil {
			fmt.Fprintf(stderr, "checkrun: aborted after %d of %d trials: %v\n", i, o.trials, ctx.Err())
			timedOut = true
			break
		}
		rep := &check.Report{}
		nodes, err := h.trial(ctx, rng, o, rep)
		if err != nil {
			// A trial torn down by the sweep deadline is a timeout, not a
			// pipeline failure.
			if ctx.Err() != nil {
				fmt.Fprintf(stderr, "checkrun: aborted after %d of %d trials: %v\n", i, o.trials, ctx.Err())
				timedOut = true
				break
			}
			fmt.Fprintf(stderr, "trial %d (%d nodes): ERROR: %v\n", i, nodes, err)
			failures++
			done++
			continue
		}
		done++
		if !rep.Ok() {
			fmt.Fprintf(stderr, "trial %d (%d nodes): %s\n", i, nodes, rep)
			failures++
		} else if o.verbose {
			fmt.Fprintf(stdout, "trial %d (%d nodes): %s\n", i, nodes, rep)
		}
		total.Merge(rep)
	}
	partial := ""
	if timedOut {
		partial = " [TIMED OUT: partial sweep]"
	}
	fmt.Fprintf(stdout, "checkrun: %d/%d trials, %d assertions, %d violations, %d failing trials (seed %d)%s\n",
		done, o.trials, total.Checks, len(total.Violations), failures, o.seed, partial)
	switch {
	case failures > 0:
		return 2
	case timedOut:
		return 3
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
