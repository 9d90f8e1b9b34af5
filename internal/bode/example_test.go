package bode_test

import (
	"fmt"
	"math"

	"repro/internal/bode"
	"repro/internal/poly"
)

// ExampleFromPolys computes a Bode response from coefficient
// polynomials — here a 1 kHz single-pole lowpass.
func ExampleFromPolys() {
	w0 := 2 * math.Pi * 1e3
	num := poly.NewX(1)
	den := poly.NewX(1, 1/w0)
	pts, err := bode.FromPolys(num, den, []float64{10, 1e3, 1e5})
	if err != nil {
		panic(err)
	}
	for _, p := range pts {
		fmt.Printf("%8.0f Hz  %7.2f dB  %7.2f°\n", p.FreqHz, p.MagDB, p.PhaseDeg)
	}
	// Output:
	//       10 Hz    -0.00 dB    -0.57°
	//     1000 Hz    -3.01 dB   -45.00°
	//   100000 Hz   -40.00 dB   -89.43°
}
