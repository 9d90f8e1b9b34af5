package core_test

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/nodal"
)

// TestRCLadderNumeratorStructuralZeros pins the structural degree
// window on the RC ladder: the voltage-gain numerator C_in,out is the
// product of the series conductances, a constant, so it has exactly one
// Valid coefficient and n exact structural zeros — resolved by the
// initial frame alone, with no frame aimed at a zero. Without the window
// the ladder40 run confirmed those zeros through ~118 stalled frames and
// certified a spurious Valid s^40.
func TestRCLadderNumeratorStructuralZeros(t *testing.T) {
	for _, n := range []int{10, 40, 60} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			c := circuits.RCLadder(n, 1e3, 1e-12)
			sys, err := nodal.Build(c)
			if err != nil {
				t.Fatal(err)
			}
			tf, err := sys.VoltageGain(c, "in", circuits.RCLadderOut(n))
			if err != nil {
				t.Fatal(err)
			}
			num, den, err := core.GenerateTransferFunction(c, tf, core.Config{Parallelism: 1, MaxIterations: 300})
			if err != nil {
				t.Fatal(err)
			}
			valid, structural := 0, 0
			for i, co := range num.Coeffs {
				bar := num.Quality.Coefficients[i]
				switch {
				case co.Status == core.Valid:
					valid++
				case co.Structural() && co.Bound.Zero() && bar.Tier == core.TierExact && bar.RelError == 0:
					structural++
				default:
					t.Errorf("numerator s^%d: %v (tier %v) is neither Valid nor an exact structural zero", i, co.Status, bar.Tier)
				}
			}
			if valid != 1 || structural != n || num.Coeffs[0].Status != core.Valid {
				t.Errorf("numerator: %d valid, %d structural zeros; want s^0 valid and %d structural zeros", valid, structural, n)
			}
			if len(num.Iterations) != 1 {
				t.Errorf("numerator took %d iterations, want the initial frame only", len(num.Iterations))
			}
			rep := check.Result(num, tf.Num.M, check.Options{})
			rep.Merge(check.Result(den, tf.Den.M, check.Options{}))
			check.Window(num, tf.Num, rep)
			check.Window(den, tf.Den, rep)
			if n <= 10 {
				// Every structural zero is a zero of the exact oracle.
				exNum, exDen, err := exact.VoltageGain(c, "in", circuits.RCLadderOut(n))
				if err != nil {
					t.Fatal(err)
				}
				check.VsPoly(num, exNum.ToXPoly(), 1e-4, 4, rep)
				check.VsPoly(den, exDen.ToXPoly(), 1e-4, 4, rep)
				check.ErrorBars(num, exNum.ToXPoly(), rep)
			}
			if !rep.Ok() {
				t.Error(rep)
			}
		})
	}
}

// TestStructurallySingularIsAllStructuralZeros: with the output on a
// node no element connects to the input, the numerator cofactor has no
// perfect matching — its window is empty, so every coefficient is a
// structural zero and no frame runs.
func TestStructurallySingularIsAllStructuralZeros(t *testing.T) {
	c := circuit.New("split")
	c.AddR("r1", "in", "0", 1e3)
	c.AddC("c1", "in", "0", 1e-9)
	c.AddR("r2", "out", "0", 1e3)
	c.AddC("c2", "out", "0", 1e-9)
	sys, err := nodal.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := sys.VoltageGain(c, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := tf.Num.DegreeWindow(); lo <= hi {
		t.Fatalf("numerator window [%d, %d], want empty", lo, hi)
	}
	num, den, err := core.GenerateTransferFunction(c, tf, core.Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(num.Iterations) != 0 || num.TotalSolves != 0 {
		t.Errorf("numerator ran %d frames, %d solves; want none", len(num.Iterations), num.TotalSolves)
	}
	for i, co := range num.Coeffs {
		if !co.Structural() {
			t.Errorf("numerator s^%d: %v, want a structural zero", i, co.Status)
		}
	}
	if num.Quality.Tier != core.TierExact {
		t.Errorf("numerator tier %v, want exact", num.Quality.Tier)
	}
	rep := check.Result(num, tf.Num.M, check.Options{})
	rep.Merge(check.Result(den, tf.Den.M, check.Options{}))
	check.Window(num, tf.Num, rep)
	check.Window(den, tf.Den, rep)
	if !rep.Ok() {
		t.Error(rep)
	}
}
