// Quickstart: build a circuit, generate network-function coefficient
// references with the adaptive scaling algorithm, and check them against
// an exact-arithmetic oracle.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/circuits"
	"repro/internal/exact"
	"repro/pkg/engine"
)

func main() {
	// A 12-section RC ladder: denominator order 12, coefficients spanning
	// ~40 decades — already beyond what unscaled interpolation survives.
	const n = 12
	ckt := circuits.RCLadder(n, 1e3, 1e-12)
	fmt.Println(ckt.Stats())

	// Formulate (nodal admittance matrix + cofactor transfer function)
	// and generate references: numerator and denominator coefficients of
	// H(s) = N(s)/D(s), each with ≥ 6 significant digits.
	eng, err := engine.New(engine.Config{})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := eng.Generate(context.Background(), engine.Request{
		Circuit: ckt,
		Spec:    engine.Spec{Kind: "vgain", In: "in", Out: circuits.RCLadderOut(n)},
	})
	if err != nil {
		log.Fatal(err)
	}
	num, den := resp.Num, resp.Den
	fmt.Println(num)
	fmt.Println(den)
	fmt.Println("\ndenominator coefficients:")
	for i, c := range den.Coeffs {
		fmt.Printf("  s^%-2d  %v\n", i, c.Value)
	}

	// Validate against the exact oracle (a multi-modular determinant
	// over big.Rat — every coefficient mathematically exact).
	wantNum, wantDen, err := exact.VoltageGain(ckt, "in", circuits.RCLadderOut(n))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmax relative error vs exact oracle: numerator %.2g, denominator %.2g\n",
		exact.MaxRelErr(num.Poly(), wantNum.ToXPoly(), 1e-9),
		exact.MaxRelErr(den.Poly(), wantDen.ToXPoly(), 1e-9))
}
