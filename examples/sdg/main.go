// SDG example: the application the paper exists for. Symbolic
// simplification-during-generation emits the largest terms of each
// network-function coefficient until eq. (3),
//
//	|h_k(x0) − Σ generated| ≤ ε_k·|h_k(x0)|,
//
// holds — which requires the total coefficient magnitude h_k(x0) (the
// "numerical reference") before any symbolic expression exists. This
// example generates the references with the adaptive algorithm, then
// truncates the exact symbolic expansion of a gm-C cascade at several
// error levels.
//
//	go run ./examples/sdg
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/circuits"
	"repro/internal/symbolic"
	"repro/internal/xmath"
	"repro/pkg/engine"
)

func main() {
	ckt := circuits.GmCCascade(4, 1e-4, 1e-5, 1e-12)
	out := circuits.GmCCascadeOut(4)
	fmt.Println(ckt.Stats())

	// Step 1: numerical references via adaptive scaling.
	eng, err := engine.New(engine.Config{})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := eng.Generate(context.Background(), engine.Request{
		Circuit: ckt,
		Spec:    engine.Spec{Kind: "vgain", In: "in", Out: out},
	})
	if err != nil {
		log.Fatal(err)
	}
	refs := resp.Den.Poly()

	// Step 2: symbolic term enumeration (exact, exponential — fine at
	// this size).
	_, symDen, err := symbolic.VoltageGain(ckt, "in", out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full symbolic denominator: %d terms across s^0..s^%d\n\n",
		symDen.NumTerms(), symDen.MaxPower())

	// Step 3a: SAG-style truncation of the full expression at
	// decreasing ε.
	for _, eps := range []float64{0.25, 0.05, 0.01} {
		fmt.Printf("ε = %g (truncating the full expression):\n", eps)
		kept, total := 0, 0
		for k := 0; k <= symDen.MaxPower(); k++ {
			terms := symDen.ByPower[k]
			if len(terms) == 0 {
				continue
			}
			var ref xmath.XFloat
			if k < len(refs) {
				ref = refs[k]
			}
			tr, err := symbolic.TruncateSDG(terms, ref, eps)
			if err != nil {
				log.Fatalf("s^%d: %v", k, err)
			}
			kept += len(tr.Kept)
			total += tr.Total
			if k <= 1 {
				fmt.Printf("  h_%d ≈ %s\n", k, tr.Formula())
			}
		}
		fmt.Printf("  kept %d of %d terms overall\n\n", kept, total)
	}

	// Step 3b: true SDG — lazy best-first generation that never builds
	// the full expression: terms arrive largest-first and generation
	// stops per coefficient as soon as eq. (3) holds. The reference is
	// indispensable here: the stopping rule needs h_k(x0) before the
	// expression exists.
	stream, err := symbolic.StreamVoltageGainDen(ckt, "in")
	if err != nil {
		log.Fatal(err)
	}
	results, err := symbolic.RunSDG(stream, refs, 0.05, 0)
	if err != nil {
		log.Fatal(err)
	}
	generated := 0
	for _, r := range results {
		generated += r.Generated
	}
	fmt.Printf("true SDG at ε = 0.05: generated %d raw terms and stopped —\n", generated)
	fmt.Printf("the full expression has %d; the rest were never visited.\n", symDen.NumTerms())
	fmt.Println("\nsmaller ε keeps more terms — and the reference from the")
	fmt.Println("adaptive algorithm is what makes the stopping rule sound.")
}
