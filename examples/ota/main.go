// OTA example: reproduces the paper's §2.2 motivation on the
// positive-feedback OTA of Fig. 1 — why plain unit-circle interpolation
// fails (Table 1a), how a single scale pair repairs a window (Table 1b),
// and how the adaptive algorithm classifies the full coefficient vector.
//
//	go run ./examples/ota
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/circuits"
	"repro/pkg/engine"
)

func main() {
	ckt := circuits.OTA()
	inp, inn, out := circuits.OTAInputs()
	fmt.Println(ckt.Stats())

	eng, err := engine.New(engine.Config{})
	if err != nil {
		log.Fatal(err)
	}
	f, err := eng.Formulate(ckt, engine.Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out})
	if err != nil {
		log.Fatal(err)
	}
	// The paper's order estimate is the capacitor count.
	f.TF.Den.OrderBound = ckt.NumCapacitors()
	ctx := context.Background()

	// --- Table 1a: unscaled interpolation ---
	fmt.Println("\n1. Unit-circle interpolation (paper §2.2, Table 1a):")
	_, unit, err := eng.Interpolate(ctx, f, 1, 1)
	if err != nil {
		log.Fatal(err)
	}
	for i, c := range unit.Raw {
		fmt.Printf("   s^%d  %v\n", i, c)
	}
	fmt.Println("   → imaginary residue at the same order as the real parts:")
	fmt.Println("     everything above s^1 is round-off noise.")

	// --- Table 1b: one scale pair ---
	fs, gs := engine.DefaultScales(ckt)
	fmt.Printf("\n2. Fixed scaling f=%.3g, g=%.3g (paper §3, Table 1b):\n", fs, gs)
	_, fixed, err := eng.Interpolate(ctx, f, fs, gs)
	if err != nil {
		log.Fatal(err)
	}
	lo, hi, _ := engine.ValidRegion(fixed.Normalized, 6)
	for i := range fixed.Normalized {
		mark := " "
		if i >= lo && i <= hi {
			mark = "*"
		}
		fmt.Printf(" %s s^%d  %v\n", mark, i, fixed.Denormalized[i])
	}
	fmt.Printf("   → the window s^%d..s^%d is valid; the rest needs other scales.\n", lo, hi)

	// --- The adaptive algorithm, seeded with the same scale pair ---
	fmt.Println("\n3. Adaptive scaling (paper §3.2):")
	resp, err := eng.Generate(ctx, engine.Request{Circuit: ckt, Formulation: f})
	if err != nil {
		log.Fatal(err)
	}
	den := resp.Den
	for i, c := range den.Coeffs {
		switch c.Status {
		case engine.Valid:
			fmt.Printf("   s^%-2d valid       %v\n", i, c.Value)
		case engine.Negligible:
			fmt.Printf("   s^%-2d negligible  |p| < %v\n", i, c.Bound)
		}
	}
	fmt.Printf("   → %s\n", den)
	fmt.Printf("   → detected true order: %d (the a-priori estimate was %d)\n",
		den.Order(), f.TF.Den.OrderBound)
}
