package exact

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/poly"
)

func ratsEqual(t *testing.T, got RatPoly, want ...float64) {
	t.Helper()
	for i, w := range want {
		wr := new(big.Rat).SetFloat64(w)
		if got.at(i).Cmp(wr) != 0 {
			t.Errorf("coeff %d = %v, want %v", i, got.at(i), wr)
		}
	}
	if got.Degree() >= len(want) {
		t.Errorf("degree %d, want < %d", got.Degree(), len(want))
	}
}

func TestRatPolyArithmetic(t *testing.T) {
	p := NewRatPoly(1, 2)
	q := NewRatPoly(3, 0, 4)
	ratsEqual(t, p.Add(q), 4, 2, 4)
	ratsEqual(t, q.Sub(p), 2, -2, 4)
	ratsEqual(t, p.Mul(q), 3, 6, 4, 8)
	ratsEqual(t, p.Neg(), -1, -2)
	if !(RatPoly{}).Mul(p).IsZero() {
		t.Error("0·p not zero")
	}
}

func TestEvalRat(t *testing.T) {
	p := NewRatPoly(1, -2, 3)
	x := new(big.Rat).SetInt64(2)
	if got := p.EvalRat(x); got.Cmp(new(big.Rat).SetInt64(9)) != 0 {
		t.Errorf("p(2) = %v", got)
	}
}

func TestPolyDetSmall(t *testing.T) {
	// det [[1, s],[s, 1]] = 1 - s².
	m := [][]RatPoly{
		{NewRatPoly(1), NewRatPoly(0, 1)},
		{NewRatPoly(0, 1), NewRatPoly(1)},
	}
	ratsEqual(t, PolyDet(m), 1, 0, -1)
}

func TestPolyDetPivoting(t *testing.T) {
	// Zero leading entry forces a row swap.
	m := [][]RatPoly{
		{RatPoly{}, NewRatPoly(1)},
		{NewRatPoly(1), NewRatPoly(0, 1)},
	}
	ratsEqual(t, PolyDet(m), -1)
}

func TestPolyDetSingular(t *testing.T) {
	m := [][]RatPoly{
		{NewRatPoly(1), NewRatPoly(2)},
		{NewRatPoly(2), NewRatPoly(4)},
	}
	if !PolyDet(m).IsZero() {
		t.Error("singular det nonzero")
	}
	m2 := [][]RatPoly{
		{RatPoly{}, RatPoly{}},
		{NewRatPoly(1), NewRatPoly(1)},
	}
	if !PolyDet(m2).IsZero() {
		t.Error("zero-column det nonzero")
	}
}

func TestPolyDetEmptyAndOne(t *testing.T) {
	ratsEqual(t, PolyDet(nil), 1)
	ratsEqual(t, PolyDet([][]RatPoly{{NewRatPoly(5, 1)}}), 5, 1)
}

func TestPolyDetMatchesCofactorExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var cof func(m [][]RatPoly) RatPoly
	cof = func(m [][]RatPoly) RatPoly {
		if len(m) == 1 {
			return m[0][0]
		}
		det := RatPoly{}
		for j := range m {
			term := m[0][j].Mul(cof(minor(m, 0, j)))
			if j%2 == 1 {
				term = term.Neg()
			}
			det = det.Add(term)
		}
		return det
	}
	// bigRat draws a signed rational with numerator and denominator of
	// up to 200 bits: enough for the CRT to need several primes.
	bigRat := func() *big.Rat {
		num := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(1+rng.Intn(200))))
		den := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(1+rng.Intn(200))))
		if rng.Intn(2) == 0 {
			num.Neg(num)
		}
		return new(big.Rat).SetFrac(num, den.Add(den, big.NewInt(1)))
	}
	for _, wide := range []bool{false, true} {
		for n := 2; n <= 5; n++ {
			m := make([][]RatPoly, n)
			for i := range m {
				m[i] = make([]RatPoly, n)
				for j := range m[i] {
					if !wide {
						m[i][j] = NewRatPoly(float64(rng.Intn(7)-3), float64(rng.Intn(5)-2))
						continue
					}
					m[i][j] = make(RatPoly, 1+rng.Intn(3))
					for k := range m[i][j] {
						m[i][j][k] = bigRat()
					}
				}
			}
			want := cof(m)
			got := PolyDet(m)
			d := want.Degree()
			if got.Degree() != d || len(got) != d+1 {
				t.Fatalf("n=%d wide=%v: degree %d (len %d) vs %d", n, wide, got.Degree(), len(got), d)
			}
			for i := 0; i <= d; i++ {
				if got.at(i).Cmp(want.at(i)) != 0 {
					t.Errorf("n=%d wide=%v coeff %d: %v vs %v", n, wide, i, got.at(i), want.at(i))
				}
			}
		}
	}
}

func TestVoltageGainRC(t *testing.T) {
	g, cv := 1e-3, 2e-12
	c := circuit.New("rc")
	c.AddG("g1", "in", "out", g).AddC("c1", "out", "0", cv)
	num, den, err := VoltageGain(c, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	ratsEqual(t, num, g)
	ratsEqual(t, den, g, cv)
}

func TestRCLadderGainFirstOrder(t *testing.T) {
	num, den := RCLadderGain([]float64{1000}, []float64{1e-9})
	ratsEqual(t, num, 1)
	// den = 1 + R·C·s with R·C the exact product of the binary float64s.
	rc := new(big.Rat).Mul(new(big.Rat).SetFloat64(1000), new(big.Rat).SetFloat64(1e-9))
	if den.at(0).Cmp(new(big.Rat).SetInt64(1)) != 0 || den.at(1).Cmp(rc) != 0 || den.Degree() != 1 {
		t.Errorf("den = %v", den)
	}
}

func TestRCLadderGainMatchesBareiss(t *testing.T) {
	// The ladder recursion and the cofactor determinant must agree as
	// rational functions, exactly, for a mid-size ladder.
	n := 6
	ckt := circuit.New("lad")
	rs := make([]float64, n)
	cs := make([]float64, n)
	prev := "in"
	for i := 0; i < n; i++ {
		rs[i] = 1e3 * float64(i+1)
		cs[i] = 1e-12 * float64(n-i)
		node := RCLadderNode(i + 1)
		ckt.AddR("r"+node, prev, node, rs[i])
		ckt.AddC("c"+node, node, "0", cs[i])
		prev = node
	}
	ladderMatchesCofactors(t, ckt, rs, cs, prev)
}

func TestPolyDetWideSpreadLadder(t *testing.T) {
	// An order-15 ladder spans ~50 decades, where float64 interpolation
	// drowns without the adaptive scaling; the determinant is exact at
	// any spread.
	n := 15
	c := circuits.RCLadder(n, 1e3, 1e-12)
	var rs, cs []float64
	for _, e := range c.Elements() {
		switch e.Kind {
		case circuit.Resistor:
			rs = append(rs, e.Value)
		case circuit.Capacitor:
			cs = append(cs, e.Value)
		}
	}
	ladderMatchesCofactors(t, c, rs, cs, circuits.RCLadderOut(n))
}

// ladderMatchesCofactors checks RCLadderGain against VoltageGain from
// "in" to out by exact cross-multiplication (the two representations
// differ by an overall scalar).
func ladderMatchesCofactors(t *testing.T, ckt *circuit.Circuit, rs, cs []float64, out string) {
	t.Helper()
	numL, denL := RCLadderGain(rs, cs)
	numB, denB, err := VoltageGain(ckt, "in", out)
	if err != nil {
		t.Fatal(err)
	}
	if d := denB.Degree(); d != len(rs) {
		t.Fatalf("determinant degree %d, want %d", d, len(rs))
	}
	lhs := numL.Mul(denB)
	rhs := numB.Mul(denL)
	dl, dr := lhs.Degree(), rhs.Degree()
	if dl != dr {
		t.Fatalf("cross degrees %d vs %d", dl, dr)
	}
	scale := new(big.Rat).Quo(lhs.at(dl), rhs.at(dr))
	for i := 0; i <= dl; i++ {
		want := new(big.Rat).Mul(rhs.at(i), scale)
		if lhs.at(i).Cmp(want) != 0 {
			t.Errorf("cross coeff %d mismatch", i)
		}
	}
}

func TestVoltageGainErrors(t *testing.T) {
	c := circuit.New("bad")
	c.AddV("v", "a", "0", 1).AddR("r", "a", "0", 1)
	if _, _, err := VoltageGain(c, "a", "a"); err == nil {
		t.Error("non-admittance circuit accepted")
	}
	c2 := circuit.New("ok")
	c2.AddR("r", "a", "0", 1).AddC("c", "a", "0", 1e-12)
	if _, _, err := VoltageGain(c2, "a", "zz"); err == nil {
		t.Error("unknown node accepted")
	}
}

// RCLadderNode mirrors circuits.RCLadderOut without the import cycle.
func RCLadderNode(i int) string {
	return "n" + new(big.Rat).SetInt64(int64(i)).RatString()
}

func TestRatToXExtendedRange(t *testing.T) {
	// 10^-400: below float64 range, must convert faithfully.
	r := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Exp(big.NewInt(10), big.NewInt(400), nil))
	x := ratToX(r)
	if got := x.Log10(); math.Abs(got+400) > 1e-9 {
		t.Errorf("log10 = %g, want -400", got)
	}
	if !ratToX(new(big.Rat)).Zero() {
		t.Error("zero rat not zero")
	}
}

func TestRatioEqual(t *testing.T) {
	a, b := poly.NewX(1, 2), poly.NewX(3, 4)
	// Same function scaled by 7.
	a2, b2 := a.MulX(poly.NewX(7)[0]), b.MulX(poly.NewX(7)[0])
	if !RatioEqual(a, b, a2, b2, 1e-12) {
		t.Error("scaled pair not ratio-equal")
	}
	if RatioEqual(a, b, poly.NewX(1, 2.001), b, 1e-6) {
		t.Error("different functions reported equal")
	}
}

func TestMaxRelErr(t *testing.T) {
	want := poly.NewX(1, 1e-9)
	got := poly.NewX(1.00001, 1e-9)
	if e := MaxRelErr(got, want, 1e-10); math.Abs(e-1e-5) > 1e-7 {
		t.Errorf("err = %g", e)
	}
	// Spurious value where the oracle says zero → +Inf.
	if e := MaxRelErr(poly.NewX(1, 0.5), poly.NewX(1, 0), 1e-10); !math.IsInf(e, 1) {
		t.Errorf("spurious coefficient not flagged: %g", e)
	}
}

func TestQuickDetTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(nRaw uint8) bool {
		n := 2 + int(nRaw%4)
		m := make([][]RatPoly, n)
		mt := make([][]RatPoly, n)
		for i := range m {
			m[i] = make([]RatPoly, n)
			mt[i] = make([]RatPoly, n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m[i][j] = NewRatPoly(float64(rng.Intn(9)-4), float64(rng.Intn(3)-1))
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				mt[j][i] = m[i][j]
			}
		}
		a, b := PolyDet(m), PolyDet(mt)
		if a.Degree() != b.Degree() {
			return false
		}
		for i := 0; i <= a.Degree(); i++ {
			if a.at(i).Cmp(b.at(i)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
