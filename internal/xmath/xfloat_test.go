package xmath

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestFromFloatNormalForm(t *testing.T) {
	cases := []float64{1, -1, 0.5, 2, 3.75, -1e300, 1e-300, math.SmallestNonzeroFloat64, 123456.789}
	for _, v := range cases {
		x := FromFloat(v)
		if m := math.Abs(x.Mant()); m < 1 || m >= 2 {
			t.Errorf("FromFloat(%g): mantissa %g out of [1,2)", v, x.Mant())
		}
		if got := x.Float64(); got != v {
			t.Errorf("FromFloat(%g).Float64() = %g", v, got)
		}
	}
}

func TestZeroValue(t *testing.T) {
	var x XFloat
	if !x.Zero() || x.Float64() != 0 || x.Sign() != 0 {
		t.Errorf("zero value not the number 0: %+v", x)
	}
	if got := FromFloat(0); !got.Zero() {
		t.Errorf("FromFloat(0) not zero: %+v", got)
	}
	if s := x.String(); s != "0" {
		t.Errorf("zero String() = %q", s)
	}
}

func TestFromFloatPanicsOnNonFinite(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromFloat(%v) did not panic", v)
				}
			}()
			FromFloat(v)
		}()
	}
}

func TestArithmeticMatchesFloat64(t *testing.T) {
	vals := []float64{0, 1, -1, 3.5, -2.25, 1e10, -1e-10, 7.125}
	for _, a := range vals {
		for _, b := range vals {
			xa, xb := FromFloat(a), FromFloat(b)
			if got, want := xa.Add(xb).Float64(), a+b; got != want {
				t.Errorf("%g+%g = %g, want %g", a, b, got, want)
			}
			if got, want := xa.Sub(xb).Float64(), a-b; got != want {
				t.Errorf("%g-%g = %g, want %g", a, b, got, want)
			}
			if got, want := xa.Mul(xb).Float64(), a*b; got != want {
				t.Errorf("%g*%g = %g, want %g", a, b, got, want)
			}
			if b != 0 {
				if got, want := xa.Div(xb).Float64(), a/b; got != want {
					t.Errorf("%g/%g = %g, want %g", a, b, got, want)
				}
			}
		}
	}
}

func TestExtendedRange(t *testing.T) {
	// 1e-522, the smallest µA741 coefficient scale in the paper, is below
	// float64 range; build it as (1e-100)^5 * 1e-22 and round-trip decimals.
	tiny := FromFloat(1e-100).PowInt(5).Mul(FromFloat(1e-22))
	if got := tiny.Log10(); math.Abs(got+522) > 1e-9 {
		t.Errorf("log10(1e-522) = %g", got)
	}
	if tiny.Float64() != 0 {
		t.Errorf("1e-522 should flush to 0 in float64, got %g", tiny.Float64())
	}
	huge := FromFloat(1e100).PowInt(7)
	if got := huge.Log10(); math.Abs(got-700) > 1e-9 {
		t.Errorf("log10(1e700) = %g", got)
	}
	if !math.IsInf(huge.Float64(), 1) {
		t.Errorf("1e700 should saturate to +Inf, got %g", huge.Float64())
	}
	prod := tiny.Mul(huge) // 1e178, back in range
	if got := prod.Float64(); math.Abs(got-1e178)/1e178 > 1e-12 {
		t.Errorf("1e-522 * 1e700 = %g, want ~1e178", got)
	}
}

func TestAddAlignment(t *testing.T) {
	big := FromFloat(1e20)
	small := FromFloat(1)
	sum := big.Add(small)
	if got, want := sum.Float64(), 1e20+1; got != want {
		t.Errorf("1e20+1 = %g, want %g", got, want)
	}
	// Operand entirely below precision vanishes without corrupting the sum.
	lost := FromFloat(1e-300).Mul(FromFloat(1e-300)) // 1e-600
	sum = FromFloat(1).Add(lost)
	if got := sum.Float64(); got != 1 {
		t.Errorf("1 + 1e-600 = %g, want 1", got)
	}
}

func TestPowInt(t *testing.T) {
	x := FromFloat(3)
	if got := x.PowInt(5).Float64(); got != 243 {
		t.Errorf("3^5 = %g", got)
	}
	if got := x.PowInt(0).Float64(); got != 1 {
		t.Errorf("3^0 = %g", got)
	}
	if got := x.PowInt(-2).Float64(); math.Abs(got-1.0/9.0) > 1e-16 {
		t.Errorf("3^-2 = %g", got)
	}
	if got := FromFloat(0).PowInt(3); !got.Zero() {
		t.Errorf("0^3 = %v", got)
	}
	if got := FromFloat(2).PowInt(2000); got.Mant() != 1 || got.Exp() != 2000 {
		t.Errorf("2^2000 = %v·2^%d, want 1·2^2000", got.Mant(), got.Exp())
	}
}

func TestPow10(t *testing.T) {
	for _, k := range []int{0, 1, -1, 6, -13, 100, -522, 308, -308} {
		got := Pow10(k).Log10()
		if math.Abs(got-float64(k)) > 1e-9 {
			t.Errorf("log10(10^%d) = %g", k, got)
		}
	}
}

func TestCmpAbs(t *testing.T) {
	cases := []struct {
		a, b float64
		want int
	}{
		{1, 2, -1}, {2, 1, 1}, {1, 1, 0}, {-3, 2, 1}, {0, 1, -1}, {1, 0, 1}, {0, 0, 0},
		{-1.5, 1.5, 0}, {1e-30, 1e30, -1},
	}
	for _, c := range cases {
		if got := FromFloat(c.a).CmpAbs(FromFloat(c.b)); got != c.want {
			t.Errorf("CmpAbs(%g,%g) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCmp(t *testing.T) {
	if FromFloat(-5).Cmp(FromFloat(3)) != -1 {
		t.Error("-5 < 3 failed")
	}
	if FromFloat(5).Cmp(FromFloat(-3)) != 1 {
		t.Error("5 > -3 failed")
	}
	if FromFloat(2.5).Cmp(FromFloat(2.5)) != 0 {
		t.Error("2.5 == 2.5 failed")
	}
}

func TestStringFormat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{1, "1.00000e+00"},
		{-3.52987e+91, "-3.52987e+91"},
		{2.23949e-100, "2.23949e-100"},
		{9.99999999, "1.00000e+01"}, // carry propagation
	}
	for _, c := range cases {
		if got := FromFloat(c.v).String(); got != c.want {
			t.Errorf("String(%g) = %q, want %q", c.v, got, c.want)
		}
	}
	// Out-of-range magnitudes format correctly too.
	tiny := FromFloat(1.1215).Mul(Pow10(-522))
	if got := tiny.String(); !strings.HasSuffix(got, "e-522") || !strings.HasPrefix(got, "1.12") {
		t.Errorf("1.1215e-522 formats as %q", got)
	}
}

func TestTextDigits(t *testing.T) {
	x := FromFloat(1.23456789)
	if got := x.Text(3); got != "1.23e+00" {
		t.Errorf("Text(3) = %q", got)
	}
	if got := x.Text(9); got != "1.23456789e+00" {
		t.Errorf("Text(9) = %q", got)
	}
}

func TestApproxEqual(t *testing.T) {
	a := FromFloat(1.0000001)
	b := FromFloat(1.0000002)
	if !a.ApproxEqual(b, 1e-6) {
		t.Error("values within 1e-6 not approx equal")
	}
	if a.ApproxEqual(b, 1e-9) {
		t.Error("values beyond 1e-9 reported approx equal")
	}
	if !FromFloat(0).ApproxEqual(FromFloat(0), 0) {
		t.Error("0 ≈ 0 failed")
	}
	if FromFloat(0).ApproxEqual(FromFloat(1), 1e-3) {
		t.Error("0 ≈ 1 should fail")
	}
}

// --- property-based tests ---

func genPair(a, b float64) (XFloat, XFloat, bool) {
	if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
		return XFloat{}, XFloat{}, false
	}
	return FromFloat(a), FromFloat(b), true
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		return FromFloat(v).Float64() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulCommutative(t *testing.T) {
	f := func(a, b float64) bool {
		x, y, ok := genPair(a, b)
		if !ok {
			return true
		}
		p, q := x.Mul(y), y.Mul(x)
		return p.Mant() == q.Mant() && p.Exp() == q.Exp()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAddCommutative(t *testing.T) {
	f := func(a, b float64) bool {
		x, y, ok := genPair(a, b)
		if !ok {
			return true
		}
		p, q := x.Add(y), y.Add(x)
		return p.Mant() == q.Mant() && p.Exp() == q.Exp()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulDivInverse(t *testing.T) {
	f := func(a, b float64) bool {
		x, y, ok := genPair(a, b)
		if !ok || y.Zero() {
			return true
		}
		return x.Mul(y).Div(y).ApproxEqual(x, 1e-15)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNormalForm(t *testing.T) {
	f := func(a, b float64) bool {
		x, y, ok := genPair(a, b)
		if !ok {
			return true
		}
		for _, r := range []XFloat{x.Add(y), x.Sub(y), x.Mul(y), x.Neg(), x.Abs()} {
			m := math.Abs(r.Mant())
			if r.Zero() {
				if r.Exp() != 0 {
					return false
				}
			} else if m < 1 || m >= 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubSelfIsZero(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		x := FromFloat(a)
		return x.Sub(x).Zero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCmpAbsConsistentWithLog(t *testing.T) {
	f := func(a, b float64) bool {
		x, y, ok := genPair(a, b)
		if !ok || x.Zero() || y.Zero() {
			return true
		}
		c := x.CmpAbs(y)
		dl := x.Log10() - y.Log10()
		switch {
		case dl > 1e-9:
			return c == 1
		case dl < -1e-9:
			return c == -1
		}
		return true // too close to discriminate via logs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// powIntOracle is PowInt as binary exponentiation through Mul, the
// form its inlined loop must match bit for bit.
func powIntOracle(x XFloat, n int) XFloat {
	if n == 0 {
		return FromFloat(1)
	}
	inv := n < 0
	if inv {
		n = -n
	}
	result, base := FromFloat(1), x
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Mul(base)
	}
	if inv {
		return FromFloat(1).Div(result)
	}
	return result
}

// TestPowIntMatchesMulChain pins PowInt to powIntOracle on mantissas
// where products round up to the next binade, at the largest mantissa,
// and on random values, for exponents 0..300 in both signs.
func TestPowIntMatchesMulChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bases := []XFloat{FromFloat(1), FromFloat(-1), FromFloat(math.Sqrt2), FromFloat(-math.Sqrt2),
		FromFloat(math.Nextafter(2, 0)), FromFloat(1.9999999), FromFloat(10), FromParts(1.5, -3000), {}}
	for range 200 {
		bases = append(bases, FromParts(1+rng.Float64(), int64(rng.Intn(4001)-2000)).MulFloat(float64(1-2*rng.Intn(2))))
	}
	for _, x := range bases {
		for n := -300; n <= 300; n++ {
			if x.Zero() && n < 0 {
				continue
			}
			if got, want := x.PowInt(n), powIntOracle(x, n); got != want {
				t.Fatalf("(%v·2^%d)^%d = %v·2^%d, want %v·2^%d", x.Mant(), x.Exp(), n, got.Mant(), got.Exp(), want.Mant(), want.Exp())
			}
		}
	}
}

// textOracle is Text as it was written before the 'e'-form fast path:
// the 'f' form of the decimal mantissa, re-rounded after a carry, and
// the exponent through fmt. It stays as the oracle the fast path must
// match byte for byte.
func textOracle(x XFloat, digits int) string {
	if x.mant == 0 {
		return "0"
	}
	if digits < 1 {
		digits = 1
	}
	neg, m, e := x.decParts()
	s := strconv.FormatFloat(m, 'f', digits-1, 64)
	if strings.HasPrefix(s, "10") {
		m /= 10
		e++
		s = strconv.FormatFloat(m, 'f', digits-1, 64)
	}
	sign := ""
	if neg {
		sign = "-"
	}
	return fmt.Sprintf("%s%se%+03d", sign, s, e)
}

// FuzzText pins Text to textOracle over the full exponent range, every
// digit count a display uses, and the mantissas where rounding ties or
// carries, and the append forms to the functions they append: AppendDigits
// to Text and AppendText to MarshalText, byte for byte after a prefix
// they must keep.
func FuzzText(f *testing.F) {
	for _, m := range []float64{1, -1, 1.5, 2.5, 9.5, 9.999995, 9.9999949, 9.99999999, 1.0000005, 1.1215, 3.52987, math.Nextafter(10, 0)} {
		for _, exp := range []int64{0, -1, 3, -522, 1500, 40, -40} {
			f.Add(m, exp, 6)
		}
	}
	f.Add(1.23456789, int64(0), 3)
	f.Add(9.6, int64(9), 1)
	f.Add(math.NaN(), int64(0), 6)
	f.Add(math.Inf(-1), int64(0), 6)
	f.Add(math.Inf(1), int64(0), 6)
	f.Add(0.0, int64(0), 6)
	f.Fuzz(func(t *testing.T, m float64, exp int64, digits int) {
		digits %= 20
		var x XFloat
		switch {
		case math.IsNaN(m):
			x = NaN()
		case math.IsInf(m, 0):
			x = Inf(int(math.Copysign(1, m)))
		default:
			x = FromParts(m, exp%(1<<20))
		}
		want := textOracle(x, digits)
		if got := x.Text(digits); got != want {
			t.Fatalf("Text(%v × 2^%d, %d) = %q, want %q", m, exp, digits, got, want)
		}
		const prefix = "≈"
		if got := string(x.AppendDigits([]byte(prefix), digits)); got != prefix+want {
			t.Fatalf("AppendDigits(%v × 2^%d, %d) = %q, want %q", m, exp, digits, got, prefix+want)
		}
		text, err := x.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := x.AppendText([]byte(prefix)); err != nil || string(got) != prefix+string(text) {
			t.Fatalf("AppendText(%v × 2^%d) = %q, %v; want %q", m, exp, got, err, prefix+string(text))
		}
	})
}
