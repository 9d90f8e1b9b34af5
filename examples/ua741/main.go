// µA741 example: the paper's large-circuit demonstration. Runs the
// adaptive scaling algorithm on the 24-transistor µA741 small-signal
// model (order-48 denominator, coefficients spanning ~400 decades),
// shows the valid-region tiling of Tables 2-3, and validates the result
// against direct AC analysis as in Fig. 2.
//
//	go run ./examples/ua741
package main

import (
	"fmt"
	"log"

	"repro/internal/bode"
	"repro/internal/paper"
)

func main() {
	ckt, spec := paper.UA741()
	fmt.Println(ckt.Stats())

	// Fig. 2: generate, then Bode from the coefficients vs direct AC
	// analysis; the tiling and coefficients below come from the same run.
	fig2, err := paper.Fig2(ckt, spec, bode.LogSpace(1, 1e8, 41))
	if err != nil {
		log.Fatal(err)
	}
	resp := fig2.Resp
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

	fmt.Printf("\nFig. 2 check — interpolated vs electrical-simulator response,\n")
	fmt.Printf("1 Hz..100 MHz: max deviation %.3g dB, %.3g°\n", fig2.MagErrDB, fig2.PhsErr)
	m := bode.GainPhaseMargins(fig2.Interp)
	fmt.Printf("DC gain %.1f dB, unity-gain frequency ≈ %.3g Hz, phase margin %.1f°\n",
		fig2.Interp[0].MagDB, m.UnityGainHz, m.PhaseMarginDeg)
}
