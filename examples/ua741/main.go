// µA741 example: the paper's large-circuit demonstration. Runs the
// adaptive scaling algorithm on the 24-transistor µA741 small-signal
// model (order-48 denominator, coefficients spanning ~400 decades),
// shows the valid-region tiling of Tables 2-3, and validates the result
// against direct AC analysis as in Fig. 2.
//
//	go run ./examples/ua741
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bode"
	"repro/internal/circuits"
	"repro/pkg/engine"
)

func main() {
	ckt := circuits.UA741()
	inp, inn, out := circuits.UA741Inputs()
	fmt.Println(ckt.Stats())

	eng, err := engine.New(engine.Config{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	spec := engine.Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out}
	resp, err := eng.Generate(ctx, engine.Request{Circuit: ckt, Spec: spec})
	if err != nil {
		log.Fatal(err)
	}
	num, den := resp.Num, resp.Den
	fmt.Printf("matrix order %d, order bound %d\n\n", ckt.NumNodes(), resp.Formulation.TF.Den.OrderBound)

	fmt.Println("denominator valid-region tiling (Tables 2a/2b/3):")
	for i, it := range den.Iterations {
		region := "none"
		if it.Lo <= it.Hi {
			region = fmt.Sprintf("s^%d..s^%d", it.Lo, it.Hi)
		}
		fmt.Printf("  iteration %d (%s): f=%.4g g=%.4g K=%d → valid %s (+%d new)\n",
			i+1, it.Purpose, it.FScale, it.GScale, it.K, region, it.NewValid)
	}
	fmt.Printf("\n%v\n%v\n", num, den)
	fmt.Println("\nfirst and last denominator coefficients (span ≈ 400 decades,")
	fmt.Println("far outside float64 — extended-range arithmetic carries them):")
	coeffs := den.Poly()
	for _, i := range []int{0, 1, 2} {
		fmt.Printf("  s^%-2d  %v\n", i, coeffs[i])
	}
	fmt.Println("  ...")
	o := den.Order()
	for _, i := range []int{o - 2, o - 1, o} {
		fmt.Printf("  s^%-2d  %v\n", i, coeffs[i])
	}

	// Fig. 2: Bode from coefficients vs direct AC analysis.
	freqs := bode.LogSpace(1, 1e8, 41)
	fromCoeffs, err := bode.FromPolys(num.Poly(), den.Poly(), freqs)
	if err != nil {
		log.Fatal(err)
	}
	h, err := eng.ACResponse(ctx, ckt, spec, freqs)
	if err != nil {
		log.Fatal(err)
	}
	fromAC := bode.FromComplexResponse(freqs, h)
	magErr, phErr, err := bode.Compare(fromCoeffs, fromAC)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFig. 2 check — interpolated vs electrical-simulator response,\n")
	fmt.Printf("1 Hz..100 MHz: max deviation %.3g dB, %.3g°\n", magErr, phErr)
	m := bode.GainPhaseMargins(fromCoeffs)
	fmt.Printf("DC gain %.1f dB, unity-gain frequency ≈ %.3g Hz, phase margin %.1f°\n",
		fromCoeffs[0].MagDB, m.UnityGainHz, m.PhaseMarginDeg)
}
