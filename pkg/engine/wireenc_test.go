package engine_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/pkg/engine"
)

// wireFloats are the float64 spellings where encoding/json's rules have
// edges: signed zeros, the 1e-6 and 1e21 switches to exponent form, the
// one-digit exponent clean-up, subnormals, the extremes and the values
// it refuses.
var wireFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, -1e-7, 1e-6, 9.99e-7, 1e21, 9.99e20, 1e20, -1e21,
	123456.78901234567, 0.1, 2.5e-9, 1e100, 1e-100, math.SmallestNonzeroFloat64, 2.225e-308,
	math.MaxFloat64, -math.MaxFloat64, 4.5067406397304066e-8,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// wireStrings carry the bytes encoding/json escapes: quotes, backslashes,
// the HTML-sensitive <>&, control bytes, DEL, U+2028/U+2029, other
// non-ASCII runes and invalid UTF-8.
var wireStrings = []string{
	"", "valid", "certified", "1.4866663176086083p-425", "a\"b\\c", "<script>&amp;</script>",
	"\x00\x01\b\f\n\r\t\x1f\x7f", "line\u2028para\u2029end", "σ = 6, µA741 ✓", "\xff\xfe bad \xc3",
	"\xe2\x80", "tab\tnew\nline",
}

// randomWire builds a WireResponse from rng with fields drawn from the
// edge cases above, mixed with the fuzzer's own string and float.
func randomWire(rng *rand.Rand, s string, x float64, finite bool) *engine.WireResponse {
	str := func() string {
		if rng.Intn(4) == 0 {
			return s
		}
		return wireStrings[rng.Intn(len(wireStrings))]
	}
	num := func() float64 {
		var v float64
		switch rng.Intn(4) {
		case 0:
			v = x
		case 1:
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(80)-40))
		default:
			v = wireFloats[rng.Intn(len(wireFloats))]
		}
		if finite && (math.IsNaN(v) || math.IsInf(v, 0)) {
			return 1
		}
		return v
	}
	integer := func() int {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return rng.Intn(200) - 100
		}
		return int(rng.Int63()) - math.MaxInt64/2
	}
	result := func() *engine.WireResult {
		if rng.Intn(5) == 0 {
			return nil
		}
		r := &engine.WireResult{
			Name: str(), Order: integer(), M: integer(), SigDigits: integer(),
			SeedFScale: num(), SeedGScale: num(), Tier: str(),
			TotalSolves: integer(), CacheHits: integer(), CacheMisses: integer(),
			FrameRetries: integer(), FailedFrames: integer(),
		}
		if n := rng.Intn(6) - 1; n >= 0 {
			r.Coeffs = make([]engine.WireCoefficient, n)
		}
		for i := range r.Coeffs {
			r.Coeffs[i] = engine.WireCoefficient{
				Status: str(), Value: str(), Approx: str(), Bound: str(), Quality: num(),
				Iteration: integer(), Tier: str(), RelError: num(), CondLog10: num(),
				DriftLog10: num(), Retries: integer(),
			}
		}
		for range rng.Intn(3) {
			r.Events = append(r.Events, engine.WireQualityEvent{Kind: str(), Frame: integer(), Target: integer(), Detail: str()})
		}
		if rng.Intn(4) == 0 {
			r.Events = []engine.WireQualityEvent{}
		}
		for range rng.Intn(4) {
			it := engine.WireIteration{
				Purpose: str(), FScale: num(), GScale: num(), K: integer(), Offset: integer(),
				Lo: integer(), Hi: integer(), NewValid: integer(), Revised: integer(),
				Solves: integer(), Attempt: integer(),
			}
			if n := rng.Intn(4) - 1; n >= 0 {
				it.Negligible = make([]int, n)
				for j := range it.Negligible {
					it.Negligible[j] = integer()
				}
			}
			r.Iterations = append(r.Iterations, it)
		}
		return r
	}
	return &engine.WireResponse{Backend: str(), Tier: str(), Num: result(), Den: result()}
}

// checkWireOracle asserts that EncodeWireJSON produces MarshalIndent's
// bytes plus a newline, and errors exactly where MarshalIndent does.
func checkWireOracle(t *testing.T, w *engine.WireResponse) {
	t.Helper()
	got, err := engine.EncodeWireJSON(w)
	want, werr := json.MarshalIndent(w, "", "  ")
	switch {
	case werr != nil:
		if err == nil {
			t.Fatalf("MarshalIndent refused the response (%v), EncodeWireJSON did not", werr)
		}
		if err.Error() != werr.Error() {
			t.Errorf("error %q, want %q", err, werr)
		}
	case err != nil:
		t.Fatalf("EncodeWireJSON: %v; MarshalIndent encoded the response", err)
	case !bytes.Equal(got, append(want, '\n')):
		t.Fatalf("bytes differ from MarshalIndent:\n got %q\nwant %q", got, want)
	}
}

// FuzzWireEncode pins the append encoder to its reflect oracle over
// random wire responses whose strings and floats sit on encoding/json's
// escaping and spelling edges.
func FuzzWireEncode(f *testing.F) {
	f.Add(int64(1), "plain", 1.5, true)
	f.Add(int64(2), "<>&\u2028\u2029\x00\x1f", 1e-7, true)
	f.Add(int64(3), "\xff\xfe", math.SmallestNonzeroFloat64, false)
	f.Add(int64(4), "", 1e21, false)
	f.Add(int64(5), "µ", math.Copysign(0, -1), true)
	f.Fuzz(func(t *testing.T, seed int64, s string, x float64, finite bool) {
		checkWireOracle(t, randomWire(rand.New(rand.NewSource(seed)), s, x, finite))
	})
}

// TestWireEncodeOracle runs the oracle over a fixed spread of seeds, so
// plain go test covers more than the fuzz corpus, and checks that the
// sizing pass bounds every body: an encoding costs exactly one
// allocation.
func TestWireEncodeOracle(t *testing.T) {
	for seed := range int64(300) {
		w := randomWire(rand.New(rand.NewSource(seed)), wireStrings[seed%int64(len(wireStrings))], wireFloats[seed%int64(len(wireFloats))], seed%3 != 0)
		checkWireOracle(t, w)
		if _, err := engine.EncodeWireJSON(w); err != nil {
			continue
		}
		if n := testing.AllocsPerRun(1, func() { _, _ = engine.EncodeWireJSON(w) }); n != 1 {
			t.Fatalf("seed %d: %v allocations per encoding, want 1", seed, n)
		}
	}
	for _, v := range wireFloats {
		checkWireOracle(t, &engine.WireResponse{Tier: "numeric", Num: &engine.WireResult{SeedFScale: v, Coeffs: []engine.WireCoefficient{}}})
	}
	for _, s := range wireStrings {
		checkWireOracle(t, &engine.WireResponse{Backend: s, Tier: s})
	}
}

func TestWireEncodeNil(t *testing.T) {
	got, err := engine.EncodeWireJSON(nil)
	if err != nil || string(got) != "null\n" {
		t.Fatalf("nil response encodes as %q, %v; want \"null\\n\"", got, err)
	}
	if got, err := engine.EncodeResponseJSON(nil); err != nil || string(got) != "null\n" {
		t.Fatalf("nil Response encodes as %q, %v; want \"null\\n\"", got, err)
	}
}
