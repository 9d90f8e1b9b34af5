package nodal

import (
	"testing"

	"repro/internal/dft"
	"repro/internal/interp"
	"repro/internal/xmath"
)

// assertJointMatches checks the joint chunk form against the
// independent evaluators at several points, all in one chunk, and scale
// pairs. The joint Cramer values come from a different elimination (full
// matrix + solve vs. cofactor determinant), so the comparison is
// relative, not bitwise.
func assertJointMatches(t *testing.T, tf *interp.TransferFunction, relTol float64) {
	t.Helper()
	if tf.EvalBothChunk == nil {
		t.Fatal("transfer function has no EvalBothChunk")
	}
	if tf.BothReady == nil {
		t.Fatal("transfer function has no BothReady")
	}
	if tf.BothReady() {
		t.Error("BothReady true before any evaluation")
	}
	close := func(got, want xmath.XComplex, label string, s complex128) {
		diff := got.Sub(want).AbsX()
		bound := want.AbsX().MulFloat(relTol)
		if want.Zero() {
			if !got.Zero() {
				t.Errorf("%s at s=%v: joint %v, independent zero", label, s, got)
			}
			return
		}
		if diff.CmpAbs(bound) > 0 {
			t.Errorf("%s at s=%v: joint %v vs independent %v (rel err above %g)", label, s, got, want, relTol)
		}
	}
	for _, scale := range [][2]float64{{1, 1}, {4e11, 800}, {1e9, 1e3}} {
		f, g := scale[0], scale[1]
		pts := dft.UnitCirclePoints(7)
		n, d := make([]xmath.XComplex, len(pts)), make([]xmath.XComplex, len(pts))
		tf.EvalBothChunk(n, d, pts, f, g)
		for i, s := range pts {
			close(n[i], tf.Num.Eval(s, f, g), "numerator", s)
			close(d[i], tf.Den.Eval(s, f, g), "denominator", s)
		}
	}
	if !tf.BothReady() {
		t.Error("BothReady still false after successful evaluations")
	}
}

func TestVoltageGainEvalBothMatches(t *testing.T) {
	c := batchCircuit()
	sys, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := sys.VoltageGain(c, "a", "c")
	if err != nil {
		t.Fatal(err)
	}
	assertJointMatches(t, tf, 1e-9)
}

func TestTransimpedanceEvalBothMatches(t *testing.T) {
	c := batchCircuit()
	sys, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := sys.Transimpedance(c, "a", "c")
	if err != nil {
		t.Fatal(err)
	}
	assertJointMatches(t, tf, 1e-9)
}

func TestDifferentialGainHasNoEvalBoth(t *testing.T) {
	c := batchCircuit()
	sys, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := sys.DifferentialVoltageGain(c, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if tf.EvalBothChunk != nil {
		t.Error("differential gain unexpectedly offers a joint form (cancellation risk)")
	}
}

// TestEvalConjugateSymmetric verifies the premise of the Hermitian
// mirroring scheme at the evaluator level: every arithmetic step of the
// sparse elimination commutes with conjugation in IEEE arithmetic, so
// P(conj s) must equal conj(P(s)) bit for bit — not merely to rounding.
func TestEvalConjugateSymmetric(t *testing.T) {
	c := batchCircuit()
	sys, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := sys.VoltageGain(c, "a", "c")
	if err != nil {
		t.Fatal(err)
	}
	pts := dft.UnitCirclePoints(9)
	for _, ev := range []interp.Evaluator{tf.Num, tf.Den} {
		for i := 1; i < len(pts); i++ {
			s := pts[i]
			conj := complex(real(s), -imag(s))
			want := ev.Eval(s, 3e11, 500).Conj()
			got := ev.Eval(conj, 3e11, 500)
			if got != want {
				t.Errorf("%s: Eval(conj s) = %v, conj(Eval(s)) = %v at s=%v", ev.Name, got, want, s)
			}
		}
	}
}
