package check_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/interp"
	"repro/internal/nodal"
	"repro/internal/xmath"
)

// generateBiquad runs the full pipeline on the biquad fixture and
// returns the system plus both generated polynomials.
func generateBiquad(t testing.TB) (*nodal.System, *core.Result, *core.Result, int) {
	t.Helper()
	c := circuits.Biquad()
	sys, err := nodal.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	in, out := circuits.BiquadNodes()
	tf, err := sys.VoltageGain(c, in, out)
	if err != nil {
		t.Fatal(err)
	}
	num, den, err := core.GenerateTransferFunction(c, tf, core.Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys, num, den, tf.Den.M
}

// generateUA741 runs the full pipeline on the µA741 differential gain:
// both of its polynomials take several iterations, which the corruption
// tests need (the biquad's resolve in one initial frame each).
func generateUA741(t testing.TB) (*interp.TransferFunction, *core.Result, *core.Result) {
	t.Helper()
	c := circuits.UA741()
	sys, err := nodal.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	inp, inn, out := circuits.UA741Inputs()
	tf, err := sys.DifferentialVoltageGain(c, inp, inn, out)
	if err != nil {
		t.Fatal(err)
	}
	num, den, err := core.GenerateTransferFunction(c, tf, core.Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tf, num, den
}

func TestBiquadInvariants(t *testing.T) {
	_, num, den, m := generateBiquad(t)
	for _, res := range []*core.Result{num, den} {
		rep := check.Result(res, m, check.Options{})
		if !rep.Ok() {
			t.Errorf("%s: %s", res.Name, rep)
		}
		if rep.Checks == 0 {
			t.Errorf("%s: no assertions ran", res.Name)
		}
	}
}

func TestBiquadVsExactOracle(t *testing.T) {
	_, num, den, _ := generateBiquad(t)
	c := circuits.Biquad()
	in, out := circuits.BiquadNodes()
	exNum, exDen, err := exact.VoltageGain(c, in, out)
	if err != nil {
		t.Fatal(err)
	}
	rep := &check.Report{}
	check.VsPoly(num, exNum.ToXPoly(), 1e-4, 4, rep)
	check.VsPoly(den, exDen.ToXPoly(), 1e-4, 4, rep)
	check.VsRatio(num, den, exNum.ToXPoly(), exDen.ToXPoly(), 1e-4, rep)
	if !rep.Ok() {
		t.Error(rep)
	}
}

func TestBiquadBodeVsAC(t *testing.T) {
	c := circuits.Biquad()
	_, num, den, _ := generateBiquad(t)
	in, out := circuits.BiquadNodes()
	rep := &check.Report{}
	check.BodeVsAC(c, "vgain", in, "", out, num, den, 0, 0, rep)
	if !rep.Ok() {
		t.Error(rep)
	}
}

func TestOTADifferentialInvariants(t *testing.T) {
	c := circuits.OTA()
	sys, err := nodal.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	inp, inn, out := circuits.OTAInputs()
	tf, err := sys.DifferentialVoltageGain(c, inp, inn, out)
	if err != nil {
		t.Fatal(err)
	}
	num, den, err := core.GenerateTransferFunction(c, tf, core.Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := check.Result(num, tf.Num.M, check.Options{})
	rep.Merge(check.Result(den, tf.Den.M, check.Options{}))
	exNum, exDen, err := exact.DifferentialVoltageGain(c, inp, inn, out)
	if err != nil {
		t.Fatal(err)
	}
	check.VsPoly(num, exNum.ToXPoly(), 1e-4, 4, rep)
	check.VsPoly(den, exDen.ToXPoly(), 1e-4, 4, rep)
	check.BodeVsAC(c, "diffgain", inp, inn, out, num, den, 0, 0, rep)
	if !rep.Ok() {
		t.Error(rep)
	}
}

func TestParityBiquad(t *testing.T) {
	c := circuits.Biquad()
	sys, err := nodal.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	in, out := circuits.BiquadNodes()
	tf, err := sys.VoltageGain(c, in, out)
	if err != nil {
		t.Fatal(err)
	}
	rep := check.Parity(tf.Den, core.Config{}, 0)
	if !rep.Ok() {
		t.Error(rep)
	}
}

// copyResult deep-copies a result so corruption tests can mutate freely.
func copyResult(r *core.Result) *core.Result {
	out := *r
	out.Coeffs = append([]core.Coefficient(nil), r.Coeffs...)
	out.Iterations = append([]core.Iteration(nil), r.Iterations...)
	out.Quality.Coefficients = append([]core.ErrorBar(nil), r.Quality.Coefficients...)
	return &out
}

func TestCheckerCatchesCorruption(t *testing.T) {
	tf, num, den := generateUA741(t)
	m := tf.Den.M
	if len(num.Iterations) < 2 {
		t.Fatalf("fixture assumption broken: numerator resolved in %d iteration(s)", len(num.Iterations))
	}
	top := len(den.Coeffs) - 1
	if !den.Coeffs[top].Structural() {
		t.Fatalf("fixture assumption broken: denominator s^%d is not a structural zero", top)
	}

	cases := []struct {
		name      string
		corrupt   func(r *core.Result)
		invariant string
		useNum    bool
	}{
		{"unresolved coefficient", func(r *core.Result) {
			r.Coeffs[den.Order()] = core.Coefficient{}
		}, "classified", false},
		{"perturbed value", func(r *core.Result) {
			i := den.Order()
			r.Coeffs[i].Value = r.Coeffs[i].Value.MulFloat(1.01)
		}, "homogeneity", false},
		// The drift reference is iteration 0, so blow up a later
		// iteration; the numerator takes several to converge.
		{"scale blow-up", func(r *core.Result) {
			r.Iterations[len(r.Iterations)-1].FScale = 1e35
		}, "scale", true},
		{"overlap disagreement", func(r *core.Result) {
			r.Disagreements = 3
		}, "overlap", false},
		{"region escape", func(r *core.Result) {
			r.Iterations[0].Hi = len(r.Coeffs) + 5
			r.Iterations[0].K = 1
		}, "region", false},
		{"structural zero with a bound", func(r *core.Result) {
			r.Coeffs[top].Bound = xmath.FromFloat(1e-300)
		}, "structural", false},
		{"structural zero graded certified", func(r *core.Result) {
			r.Quality.Coefficients[top].Tier = core.TierCertified
		}, "structural", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := den
			if tc.useNum {
				src = num
			}
			bad := copyResult(src)
			tc.corrupt(bad)
			rep := check.Result(bad, m, check.Options{})
			if rep.Ok() {
				t.Fatalf("corruption %q not detected", tc.name)
			}
			found := false
			for _, v := range rep.Violations {
				if v.Invariant == tc.invariant {
					found = true
				}
			}
			if !found {
				t.Errorf("want a %q violation, got %s", tc.invariant, rep)
			}
		})
	}
}

// TestWindowCatchesCorruption checks check.Window on the µA741: the
// clean run passes, and a Valid value outside the structural window, a
// non-structural coefficient outside it and a structural zero inside it
// are each reported.
func TestWindowCatchesCorruption(t *testing.T) {
	tf, num, den := generateUA741(t)
	for _, p := range []struct {
		res *core.Result
		ev  interp.Evaluator
	}{{num, tf.Num}, {den, tf.Den}} {
		rep := &check.Report{}
		check.Window(p.res, p.ev, rep)
		if !rep.Ok() || rep.Checks == 0 {
			t.Fatalf("clean %s: %s", p.res.Name, rep)
		}
	}
	lo, hi := tf.Den.DegreeWindow()
	if lo != 0 || hi != 47 {
		t.Fatalf("µA741 denominator window [%d, %d], want [0, 47]", lo, hi)
	}
	cases := []struct {
		name    string
		corrupt func(r *core.Result)
	}{
		{"valid outside the window", func(r *core.Result) {
			r.Coeffs[hi+1] = core.Coefficient{Status: core.Valid, Value: xmath.FromFloat(-5.65e-300), Iteration: 0}
		}},
		{"evidence-bounded negligible outside the window", func(r *core.Result) {
			r.Coeffs[hi+1] = core.Coefficient{Status: core.Negligible, Bound: xmath.FromFloat(1e-300), Iteration: 0}
		}},
		{"structural zero inside the window", func(r *core.Result) {
			r.Coeffs[hi] = core.Coefficient{Status: core.Negligible, Iteration: -1}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := copyResult(den)
			tc.corrupt(bad)
			rep := &check.Report{}
			check.Window(bad, tf.Den, rep)
			if rep.Ok() {
				t.Fatalf("corruption %q not detected", tc.name)
			}
			for _, v := range rep.Violations {
				if v.Invariant != "structural" {
					t.Errorf("unexpected %s", v)
				}
			}
		})
	}
}

func TestParityCatchesMutation(t *testing.T) {
	_, _, den, _ := generateBiquad(t)
	bad := copyResult(den)
	i := den.Order()
	bad.Coeffs[i].Value = bad.Coeffs[i].Value.MulFloat(1 + 1e-15)
	rep := &check.Report{}
	check.ParityResults(den, bad, rep)
	if rep.Ok() {
		t.Fatal("one-ulp value mutation not detected by parity check")
	}
}

func TestVsPolyCatchesFabrication(t *testing.T) {
	_, _, den, _ := generateBiquad(t)
	want := den.Poly()
	i := den.Order()
	want[i] = want[i].MulFloat(1.01)
	rep := &check.Report{}
	check.VsPoly(den, want, 1e-4, 4, rep)
	if rep.Ok() {
		t.Fatal("1% oracle deviation not detected")
	}
}

func TestReportFormatting(t *testing.T) {
	rep := &check.Report{}
	if err := rep.Err(); err != nil {
		t.Errorf("clean report returned error %v", err)
	}
	check.VsPoly(&core.Result{Name: "p", Coeffs: []core.Coefficient{{
		Status: core.Valid, Value: xmath.FromFloat(1),
	}}}, nil, 1e-6, 4, rep)
	if rep.Ok() {
		t.Fatal("valid-vs-zero should be a violation")
	}
	if err := rep.Err(); err == nil {
		t.Error("dirty report returned nil error")
	}
	if rep.String() == "" {
		t.Error("empty String()")
	}
}

func TestFreqRange(t *testing.T) {
	// den = (1 + s/ω1)(1 + s/ω2) with ω1 = 2π·1e3, ω2 = 2π·1e6:
	// coefficient ratios bracket the two pole frequencies.
	w1, w2 := 2*3.141592653589793*1e3, 2*3.141592653589793*1e6
	den := make([]xmath.XFloat, 3)
	den[0] = xmath.FromFloat(1)
	den[1] = xmath.FromFloat(1/w1 + 1/w2)
	den[2] = xmath.FromFloat(1 / (w1 * w2))
	f0, f1 := check.FreqRange(den)
	if f0 > 1e3 || f1 < 1e6 {
		t.Errorf("FreqRange = [%g, %g], want it to bracket [1e3, 1e6]", f0, f1)
	}
	f0, f1 = check.FreqRange(nil)
	if f0 != 1 || f1 != 1e6 {
		t.Errorf("degenerate FreqRange = [%g, %g], want [1, 1e6]", f0, f1)
	}
}
