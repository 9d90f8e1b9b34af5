package xmath

import (
	"encoding/json"
	"math"
	"testing"
)

func TestMarshalTextRoundTrip(t *testing.T) {
	cases := []XFloat{
		{},
		FromFloat(1),
		FromFloat(-1),
		FromFloat(1.5),
		FromFloat(math.Pi),
		FromFloat(-math.SmallestNonzeroFloat64),
		FromFloat(math.MaxFloat64),
		FromParts(1.9999999999999998, -1734),
		FromParts(-1.0000000000000002, 98765),
		Pow10(-522),
		Pow10(91).MulFloat(-3.52987),
		FromParts(1, 1<<40),
		FromParts(-1.25, -(1 << 40)),
	}
	for _, x := range cases {
		text, err := x.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%v): %v", x, err)
		}
		var back XFloat
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if back != x {
			t.Errorf("round trip %q: got mant=%v exp=%d, want mant=%v exp=%d",
				text, back.Mant(), back.Exp(), x.Mant(), x.Exp())
		}
		// Determinism: re-marshaling the decoded value spells identically.
		again, err := back.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(text) {
			t.Errorf("re-marshal of %q produced %q", text, again)
		}
		checkAppendText(t, x, text)
	}
}

// checkAppendText asserts that AppendText appends MarshalText's bytes,
// text, after the bytes already in its buffer.
func checkAppendText(t *testing.T, x XFloat, text []byte) {
	t.Helper()
	for _, prefix := range []string{"", "x", "1.5p3,"} {
		got, err := x.AppendText([]byte(prefix))
		if err != nil {
			t.Fatalf("AppendText(%q): %v", text, err)
		}
		if string(got) != prefix+string(text) {
			t.Errorf("AppendText after %q = %q, want %q", prefix, got, prefix+string(text))
		}
	}
}

func TestMarshalTextNonFinite(t *testing.T) {
	for _, tc := range []struct {
		x    XFloat
		want string
	}{
		{NaN(), "NaN"},
		{Inf(1), "+Inf"},
		{Inf(-1), "-Inf"},
		{XFloat{}, "0"},
	} {
		text, err := tc.x.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if string(text) != tc.want {
			t.Errorf("MarshalText = %q, want %q", text, tc.want)
		}
		checkAppendText(t, tc.x, text)
		var back XFloat
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		switch {
		case tc.x.IsNaN():
			if !back.IsNaN() {
				t.Errorf("round trip of NaN lost NaN-ness: %v", back)
			}
		case back != tc.x:
			t.Errorf("round trip of %q: %v != %v", text, back, tc.x)
		}
	}
}

func TestUnmarshalTextRejects(t *testing.T) {
	bad := []string{
		"", "p", "1.5", "1.5p", "p12", "1.5p1.5", "1.5px", "xp1",
		"0p0",                   // zero spells "0"
		"NaNp5",                 // non-finite mantissa with exponent
		"1e999p0",               // mantissa overflows float64
		"1p9223372036854775807", // exponent too large to renormalize safely
		"1.5p-9223372036854775808",
	}
	for _, s := range bad {
		var x XFloat
		if err := x.UnmarshalText([]byte(s)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted", s)
		}
	}
}

func TestUnmarshalTextDenormalized(t *testing.T) {
	// A denormalized mantissa renormalizes exactly: 6p10 = 1.5·2^12.
	var x XFloat
	if err := x.UnmarshalText([]byte("6p10")); err != nil {
		t.Fatal(err)
	}
	if want := FromParts(1.5, 12); x != want {
		t.Errorf("6p10 decoded to %v·2^%d, want %v·2^%d", x.Mant(), x.Exp(), want.Mant(), want.Exp())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	type payload struct {
		V XFloat  `json:"v"`
		P *XFloat `json:"p,omitempty"`
	}
	v := Pow10(-300).MulFloat(7.25)
	p := FromParts(1.75, 4096)
	raw, err := json.Marshal(payload{V: v, P: &p})
	if err != nil {
		t.Fatal(err)
	}
	var back payload
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
	if back.V != v || back.P == nil || *back.P != p {
		t.Errorf("JSON round trip of %s lost exactness", raw)
	}
}
