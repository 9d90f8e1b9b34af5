package xmath

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// The wire format for extended-range scalars is "<mantissa>p<exp>": the
// normalized mantissa printed as the shortest decimal that round-trips
// the float64 exactly (strconv 'g' with precision -1), then 'p', then
// the binary exponent in decimal — e.g. "1.5p-1734" for 1.5 × 2^-1734.
// Zero is "0"; the fault-layer escape values are "NaN", "+Inf", "-Inf".
// The format is deterministic (one spelling per value) and lossless:
// UnmarshalText(MarshalText(x)) reconstructs x bit for bit, including
// exponents far outside float64 range. encoding/json picks these
// methods up automatically, so an XFloat field marshals as a JSON
// string in this format.

// MarshalText implements encoding.TextMarshaler.
func (x XFloat) MarshalText() ([]byte, error) {
	return x.AppendText(make([]byte, 0, 32))
}

// AppendText implements encoding.TextAppender: it appends MarshalText's
// spelling of x to b, so a caller that spells many values can write them
// into one buffer.
func (x XFloat) AppendText(b []byte) ([]byte, error) {
	switch {
	case x.IsNaN():
		return append(b, "NaN"...), nil
	case !x.Finite():
		if x.mant < 0 {
			return append(b, "-Inf"...), nil
		}
		return append(b, "+Inf"...), nil
	case x.mant == 0:
		return append(b, '0'), nil
	}
	b = strconv.AppendFloat(b, x.mant, 'g', -1, 64)
	b = append(b, 'p')
	return strconv.AppendInt(b, x.exp, 10), nil
}

// UnmarshalText implements encoding.TextUnmarshaler. It accepts the
// MarshalText format; a denormalized mantissa (outside [1,2)) is
// renormalized exactly, since rebalancing mantissa against a binary
// exponent only moves powers of two.
func (x *XFloat) UnmarshalText(text []byte) error {
	s := string(text)
	switch s {
	case "NaN":
		*x = NaN()
		return nil
	case "+Inf", "Inf":
		*x = Inf(1)
		return nil
	case "-Inf":
		*x = Inf(-1)
		return nil
	case "0":
		*x = XFloat{}
		return nil
	}
	i := strings.IndexByte(s, 'p')
	if i < 0 {
		return fmt.Errorf("xmath: bad XFloat text %q (want \"<mantissa>p<exp>\")", s)
	}
	mant, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return fmt.Errorf("xmath: bad XFloat mantissa in %q: %w", s, err)
	}
	exp, err := strconv.ParseInt(s[i+1:], 10, 64)
	if err != nil {
		return fmt.Errorf("xmath: bad XFloat exponent in %q: %w", s, err)
	}
	if mant == 0 {
		return fmt.Errorf("xmath: bad XFloat text %q (zero spells \"0\")", s)
	}
	// Renormalizing shifts at most ~2100 (the float64 exponent span) into
	// exp; bounding the wire exponent to ±2^62 rules out int64 overflow.
	if exp > 1<<62 || exp < -(1<<62) {
		return fmt.Errorf("xmath: XFloat exponent %d in %q out of range", exp, s)
	}
	if math.IsNaN(mant) || math.IsInf(mant, 0) {
		return fmt.Errorf("xmath: XFloat mantissa in %q is not finite", s)
	}
	*x = FromParts(mant, exp)
	return nil
}
