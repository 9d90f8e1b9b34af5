package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/nodal"
)

// FuzzGenerate drives the whole reference-generation pipeline with
// randomized G/C/gm circuits and validates every successful run against
// the invariant checker: full classification, region tiling, bounded
// scale drift, the eq. (11) homogeneity law, and serial/parallel
// bit-identity. The fuzzed inputs are the RNG seed and the circuit
// size, so every corpus entry reproduces one exact circuit.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(42), uint8(5))
	f.Add(int64(-7), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8) {
		n := 2 + int(nodes)%7 // 2..8 nodes: fast enough for a fuzz body
		rng := rand.New(rand.NewSource(seed))
		c := circuits.RandomGCgm(rng, n)

		sys, err := nodal.Build(c)
		if err != nil {
			t.Fatalf("nodal build rejected its own generator's circuit: %v", err)
		}
		tf, err := sys.VoltageGain(c, "n0", fmt.Sprintf("n%d", n-1))
		if err != nil {
			t.Fatalf("voltage gain setup failed: %v", err)
		}
		num, den, err := core.GenerateTransferFunction(c, tf, core.Config{Parallelism: 1})
		if err != nil {
			t.Fatalf("generation failed on a well-formed circuit: %v", err)
		}

		rep := check.Result(num, tf.Num.M, check.Options{})
		rep.Merge(check.Result(den, tf.Den.M, check.Options{}))
		check.Window(num, tf.Num, rep)
		check.Window(den, tf.Den, rep)

		pnum, pden, perr := core.GenerateTransferFunction(c, tf, core.Config{})
		if perr != nil {
			t.Fatalf("parallel generation failed where serial succeeded: %v", perr)
		}
		check.ParityResults(num, pnum, rep)
		check.ParityResults(den, pden, rep)

		if !rep.Ok() {
			t.Fatalf("seed=%d nodes=%d: %s", seed, n, rep)
		}
	})
}
