// Biquad example: a filter designer's use of the library. A gm-C biquad
// is designed for a target (f0, Q); the reference generator extracts its
// actual transfer function including every parasitic, and the root
// finder recovers the realized pole pair — closing the design-
// verification loop numerically instead of symbolically.
//
//	go run ./examples/biquad
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/roots"
	"repro/pkg/engine"
)

func main() {
	// Target: f0 = 10 MHz, Q = 2, gm-C biquad.
	// Two-integrator loop: ω0 = √(gm1·gm2/(C1·C2)), Q = √(gm1·gm2·C1/C2)/gmq.
	f0 := 10e6
	q := 2.0
	w0 := 2 * math.Pi * f0
	c1, c2 := 1e-12, 1e-12
	gm1 := w0 * c1
	gm2 := w0 * c2
	gmq := math.Sqrt(gm1*gm2*c1/c2) / q

	// The canonical Tow-Thomas-style two-integrator gm-C loop.
	ckt := circuit.New("gm-C biquad")
	ckt.AddG("gin", "in", "0", 1e-6)
	// Bandpass node "bp": current gm1·(V_in − V_lp) injected into bp
	// (VCCS convention: gm·(V_cp−V_cn) flows from P to N, so the current
	// leaving bp is gm1·(V_lp − V_in)); gmq damps bp.
	ckt.AddVCCS("gm1a", "bp", "0", "lp", "in", gm1)
	ckt.AddVCCS("gmq", "bp", "0", "bp", "0", gmq)
	ckt.AddC("c1", "bp", "0", c1)
	// Lowpass node "lp": integrator gm2 from bp.
	ckt.AddVCCS("gm2", "lp", "0", "0", "bp", gm2) // inverting
	ckt.AddC("c2", "lp", "0", c2)
	// Parasitics a real design carries.
	ckt.AddG("go1", "bp", "0", gm1/200)
	ckt.AddG("go2", "lp", "0", gm2/200)
	ckt.AddC("cp1", "bp", "0", c1/50)
	ckt.AddC("cp2", "lp", "0", c2/50)
	fmt.Println(ckt.Stats())

	eng, err := engine.New(engine.Config{})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := eng.Generate(context.Background(), engine.Request{
		Circuit: ckt,
		Spec:    engine.Spec{Kind: "vgain", In: "in", Out: "lp"},
	})
	if err != nil {
		log.Fatal(err)
	}
	num, den := resp.Num, resp.Den
	fmt.Printf("\n%v\n%v\n", num, den)

	poles, err := roots.Find(den.Poly(), roots.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrealized poles:")
	for _, p := range poles {
		fmt.Printf("  %.4g %+.4gj rad/s\n", real(p), imag(p))
	}
	// The dominant complex pair carries the realized f0 and Q.
	var pair complex128
	for _, p := range poles {
		if imag(p) > 0 {
			pair = p
			break
		}
	}
	if pair == 0 {
		log.Fatal("no complex pole pair found")
	}
	w0Real := cmplx.Abs(pair)
	qReal := w0Real / (2 * math.Abs(real(pair)))
	fmt.Printf("\ndesign target:  f0 = %.4g Hz, Q = %.3f\n", f0, q)
	fmt.Printf("realized:       f0 = %.4g Hz, Q = %.3f\n", w0Real/(2*math.Pi), qReal)
	fmt.Printf("parasitic shift: Δf0 = %+.2f%%, ΔQ = %+.2f%%\n",
		100*(w0Real/w0-1), 100*(qReal/q-1))
}
