package symbolic

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/nodal"
	"repro/internal/poly"
	"repro/internal/xmath"
)

func collectStream(t *testing.T, ts *TermStream, max int) []Term {
	t.Helper()
	var out []Term
	for len(out) < max {
		tm, ok := ts.Next()
		if !ok {
			break
		}
		out = append(out, tm)
	}
	return out
}

func TestStreamOrderIsNonIncreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := circuits.RandomGCgm(rng, 6)
	ts, err := streamDet(c)
	if err != nil {
		t.Fatal(err)
	}
	terms := collectStream(t, ts, 100000)
	if len(terms) < 10 {
		t.Fatalf("only %d terms", len(terms))
	}
	for i := 1; i < len(terms); i++ {
		if terms[i].Value.Abs().CmpAbs(terms[i-1].Value.Abs()) > 0 {
			t.Fatalf("order violated at %d: %v after %v", i, terms[i].Value, terms[i-1].Value)
		}
	}
}

func TestStreamMatchesFullEnumeration(t *testing.T) {
	// The stream's combined term multiset must equal Analyze's.
	rng := rand.New(rand.NewSource(43))
	c := circuits.RandomGCgm(rng, 5)
	ts, err := StreamVoltageGainDen(c, "n0")
	if err != nil {
		t.Fatal(err)
	}
	raw := collectStream(t, ts, 1000000)
	// Combine raw permutation terms.
	combined := map[string]*Term{}
	for _, tm := range raw {
		k := keyOf(tm.Symbols)
		if prev, ok := combined[k]; ok {
			prev.Coeff += tm.Coeff
			prev.Value = prev.Value.Add(tm.Value)
		} else {
			cp := tm
			combined[k] = &cp
		}
	}
	_, den, err := VoltageGain(c, "n0", "n1")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Term{}
	for _, ts2 := range den.ByPower {
		for _, tm := range ts2 {
			want[keyOf(tm.Symbols)] = tm
		}
	}
	// Every non-cancelled combined term must match; cancelled ones (sum
	// 0) must be absent from Analyze's output.
	for k, tm := range combined {
		w, ok := want[k]
		if tm.Coeff == 0 {
			if ok {
				t.Errorf("cancelled term %v present in full enumeration", tm.Symbols)
			}
			continue
		}
		if !ok {
			t.Errorf("stream term %v missing from full enumeration", tm.Symbols)
			continue
		}
		if w.Coeff != tm.Coeff || !w.Value.ApproxEqual(tm.Value, 1e-12) {
			t.Errorf("term %v: stream %d·%v vs full %d·%v", tm.Symbols, tm.Coeff, tm.Value, w.Coeff, w.Value)
		}
		delete(want, k)
	}
	if len(want) != 0 {
		for k := range want {
			t.Errorf("full-enumeration term %q never streamed", k)
		}
	}
}

func TestStreamEmptyRowMeansZero(t *testing.T) {
	// A node with no elements would be caught by Validate; construct the
	// degenerate case through the det of a circuit whose matrix has an
	// empty row via a floating internal pair... simplest: 1-node circuit
	// whose single entry list is empty cannot be built, so exercise the
	// exhausted path with an exhausted stream instead.
	c := circuit.New("t")
	c.AddG("g1", "a", "0", 1)
	ts, err := streamDet(c)
	if err != nil {
		t.Fatal(err)
	}
	terms := collectStream(t, ts, 10)
	if len(terms) != 1 || terms[0].Symbols[0] != "g1" {
		t.Fatalf("terms = %v", terms)
	}
	if _, ok := ts.Next(); ok {
		t.Error("stream not exhausted")
	}
}

func TestRunSDGStopsEarly(t *testing.T) {
	// On a cascade, ε = 10% must be met long before full enumeration.
	c := circuits.GmCCascade(4, 1e-4, 1e-5, 1e-12)
	out := circuits.GmCCascadeOut(4)
	sys, err := nodal.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := sys.VoltageGain(c, "in", out)
	if err != nil {
		t.Fatal(err)
	}
	_, den, err := core.GenerateTransferFunction(c, tf, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	refs := den.Poly()

	ts, err := StreamVoltageGainDen(c, "in")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunSDG(ts, refs, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Total terms of the full expression for comparison.
	_, full, err := VoltageGain(c, "in", out)
	if err != nil {
		t.Fatal(err)
	}
	totalGenerated := 0
	for k, r := range results {
		if !r.Met {
			t.Errorf("s^%d: criterion not met (err %g after %d terms)", k, r.AchievedError, r.Generated)
			continue
		}
		if r.AchievedError > 0.1 {
			t.Errorf("s^%d: achieved %g", k, r.AchievedError)
		}
		totalGenerated += r.Generated
	}
	if totalGenerated >= full.NumTerms() {
		t.Errorf("generated %d ≥ full %d: no early stopping", totalGenerated, full.NumTerms())
	}
	t.Logf("generated %d raw terms (full expression: %d)", totalGenerated, full.NumTerms())
}

func TestRunSDGKeptSumsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	c := circuits.RandomGCgm(rng, 6)
	sys, err := nodal.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := sys.VoltageGain(c, "n0", "n2")
	if err != nil {
		t.Fatal(err)
	}
	_, den, err := core.GenerateTransferFunction(c, tf, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	refs := den.Poly()
	ts, err := StreamVoltageGainDen(c, "n0")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunSDG(ts, refs, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range results {
		if !r.Met {
			t.Errorf("s^%d unmet", k)
			continue
		}
		var sum xmath.XFloat
		for _, tm := range r.Kept {
			sum = sum.Add(tm.Value)
		}
		ref := refs[k]
		rel := ref.Sub(sum).Abs().Div(ref.Abs()).Float64()
		if rel > 0.01 {
			t.Errorf("s^%d: kept sum off by %g", k, rel)
		}
		// Kept lists are ordered.
		if !sort.SliceIsSorted(r.Kept, func(i, j int) bool {
			return r.Kept[i].Value.CmpAbs(r.Kept[j].Value) > 0
		}) {
			t.Errorf("s^%d kept terms unordered", k)
		}
	}
}

func TestRunSDGArgValidation(t *testing.T) {
	c := circuit.New("t")
	c.AddG("g1", "a", "0", 1)
	ts, _ := streamDet(c)
	if _, err := RunSDG(ts, poly.NewX(1), 0, 0); err == nil {
		t.Error("ε = 0 accepted")
	}
	// All-zero references: nothing to do.
	ts2, _ := streamDet(c)
	res, err := RunSDG(ts2, poly.NewX(0), 0.1, 0)
	if err != nil || len(res) != 0 {
		t.Errorf("zero refs: %v %v", res, err)
	}
}

func TestStreamRejectsHugeMatrix(t *testing.T) {
	m := make([][]entry, 65)
	for i := range m {
		m[i] = make([]entry, 65)
	}
	if _, err := newTermStream(m); err == nil {
		t.Error("65-row matrix accepted")
	}
}

// streamDet is a term stream for det Y, the largest matrix a stream
// expands.
func streamDet(c *circuit.Circuit) (*TermStream, error) {
	m, err := buildMatrix(c)
	if err != nil {
		return nil, err
	}
	return newTermStream(m)
}
