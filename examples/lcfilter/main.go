// LC filter example: reference generation through the paper's §2 MNA
// formulation (eqs. 7–10), which handles inductors and sources that the
// admittance-cofactor path cannot. A doubly-terminated 7th-order
// Butterworth LC ladder has a known closed-form response,
// |H(jω)|² = ¼/(1+(ω/ω0)^14), giving an analytic end-to-end check.
//
//	go run ./examples/lcfilter
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/circuits"
	"repro/pkg/engine"
)

func main() {
	const order = 7
	f0 := 1e6 // cutoff 1 MHz
	w0 := 2 * math.Pi * f0
	ckt := circuits.LCLadder(order, 50, w0)
	fmt.Println(ckt.Stats())

	eng, err := engine.New(engine.Config{})
	if err != nil {
		log.Fatal(err)
	}
	f, err := eng.Formulate(ckt, engine.Spec{Kind: "mna", Out: "out"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MNA formulation, order bound %d\n\n", f.TF.Den.OrderBound)

	// MNA determinant terms are not homogeneous in the conductances, so
	// only frequency scaling is exact: the formulation is FrequencyOnly,
	// and the engine keeps g pinned at 1 with single-factor updates.
	resp, err := eng.Generate(context.Background(), engine.Request{
		Circuit:     ckt,
		Formulation: f,
		Options:     &engine.Options{InitFScale: 1 / w0},
	})
	if err != nil {
		log.Fatal(err)
	}
	num, den := resp.Num, resp.Den
	fmt.Println(num)
	fmt.Println(den)

	fmt.Println("\ndenominator coefficients (order", den.Order(), "— a 7th-order filter):")
	for i, c := range den.Coeffs {
		if c.Status == engine.Valid && !c.Value.Zero() {
			fmt.Printf("  s^%d  %v\n", i, c.Value)
		}
	}

	fmt.Println("\nresponse vs the Butterworth closed form |H| = ½/√(1+(ω/ω0)^14):")
	np, dp := num.Poly(), den.Poly()
	worst := 0.0
	for _, ratio := range []float64{0.1, 0.5, 0.9, 1, 1.1, 2, 5, 10} {
		w := ratio * w0
		got := np.EvalJOmega(w).Div(dp.EvalJOmega(w)).AbsX().Float64()
		want := 0.5 / math.Sqrt(1+math.Pow(ratio, 2*order))
		rel := math.Abs(got-want) / want
		if rel > worst {
			worst = rel
		}
		fmt.Printf("  ω/ω0 = %-4g  |H| = %.6f   analytic %.6f\n", ratio, got, want)
	}
	fmt.Printf("\nworst relative deviation: %.2g\n", worst)
}
