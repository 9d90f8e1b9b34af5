package engine

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuits"
)

func ladderSpec(n int) (c *Circuit, spec Spec) {
	return circuits.RCLadder(n, 1e3, 1e-9), Spec{Kind: "vgain", In: "in", Out: circuits.RCLadderOut(n)}
}

// lcLadderSpec is the fifth-order Butterworth LC ladder on the MNA path:
// its evaluators carry no structural degree window, so a cold run spends
// stalled frames confirming the top coefficients and a warm replay skips
// them.
func lcLadderSpec() (c *Circuit, spec Spec) {
	return circuits.LCLadder(5, 50, 1e6), Spec{Kind: "mna", In: "vin", Out: "out"}
}

func TestGenerateBatchValidation(t *testing.T) {
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ckt, spec := ladderSpec(4)
	if _, err := eng.GenerateBatch(context.Background(), BatchRequest{Spec: spec, Points: []BatchPoint{{}}}); err == nil {
		t.Error("nil circuit accepted")
	}
	if _, err := eng.GenerateBatch(context.Background(), BatchRequest{Circuit: ckt, Spec: spec}); err == nil {
		t.Error("empty point list accepted")
	}
	// A bad spec kind resolves a backend but fails formulation — that is
	// a per-point failure, not a request error.
	resp, err := eng.GenerateBatch(context.Background(), BatchRequest{Circuit: ckt, Spec: Spec{Kind: "zz"}, Points: []BatchPoint{{}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failures != 1 || resp.Points[0].Err == nil {
		t.Errorf("bad spec kind: Failures=%d Err=%v, want per-point failure", resp.Failures, resp.Points[0].Err)
	}
}

// TestGenerateBatchBadPoints pins the per-point failure contract: a bad
// point records its error and the sweep continues.
func TestGenerateBatchBadPoints(t *testing.T) {
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ckt, spec := ladderSpec(4)
	resp, err := eng.GenerateBatch(context.Background(), BatchRequest{
		Circuit: ckt,
		Spec:    spec,
		Points: []BatchPoint{
			{Scale: map[string]float64{"nope1": 1.1, "nope2": 0.9}},
			{Scale: map[string]float64{"r1": math.NaN()}},
			{Scale: map[string]float64{"r1": 1.05}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failures != 2 {
		t.Errorf("Failures = %d, want 2", resp.Failures)
	}
	if got := resp.Points[0].Err; got == nil || !strings.Contains(got.Error(), "unknown elements [nope1 nope2]") {
		t.Errorf("unknown-element error = %v", got)
	}
	if got := resp.Points[1].Err; got == nil || !strings.Contains(got.Error(), "non-finite factor") {
		t.Errorf("non-finite factor error = %v", got)
	}
	if resp.Points[2].Err != nil {
		t.Errorf("good point after bad ones failed: %v", resp.Points[2].Err)
	}
	if resp.SolvesPerPoint() <= 0 {
		t.Error("SolvesPerPoint not computed over the surviving point")
	}
}

// TestGenerateBatchWarmProvenance pins the counter semantics: the first
// point is cold by construction and counts toward neither counter; every
// later point of a gentle sweep warm-starts, and replay saves work (the
// fixture's cold run has discovery frames to skip; see lcLadderSpec).
func TestGenerateBatchWarmProvenance(t *testing.T) {
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ckt, spec := lcLadderSpec()
	points := []BatchPoint{
		{},
		{Scale: map[string]float64{"rs": 1.02, "c3": 0.98}},
		{Scale: map[string]float64{"l2": 0.97}},
	}
	resp, err := eng.GenerateBatch(context.Background(), BatchRequest{Circuit: ckt, Spec: spec, Points: points})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failures != 0 {
		t.Fatalf("Failures = %d: %+v", resp.Failures, resp.Points)
	}
	if p := resp.Points[0]; p.Warm || p.ColdFallback != "" {
		t.Errorf("first point: Warm=%v ColdFallback=%q, want cold with no fallback reason", p.Warm, p.ColdFallback)
	}
	for _, p := range resp.Points[1:] {
		if !p.Warm {
			t.Errorf("point %d did not warm-start (fallback: %q)", p.Index, p.ColdFallback)
		}
		if p.Solves >= resp.Points[0].Solves {
			t.Errorf("point %d solves = %d, not below the cold first point's %d", p.Index, p.Solves, resp.Points[0].Solves)
		}
	}
	if resp.WarmStarts != 2 || resp.ColdFallbacks != 0 {
		t.Errorf("WarmStarts=%d ColdFallbacks=%d, want 2/0", resp.WarmStarts, resp.ColdFallbacks)
	}
	var solves int
	for _, p := range resp.Points {
		solves += p.Solves
	}
	if solves != resp.TotalSolves {
		t.Errorf("TotalSolves=%d but per-point sum=%d", resp.TotalSolves, solves)
	}
}

// TestGenerateBatchNoWarmStart pins the ablation switch: every point
// runs cold and the counters stay zero.
func TestGenerateBatchNoWarmStart(t *testing.T) {
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ckt, spec := ladderSpec(6)
	points := []BatchPoint{{}, {Scale: map[string]float64{"r1": 1.02}}}
	resp, err := eng.GenerateBatch(context.Background(), BatchRequest{Circuit: ckt, Spec: spec, Points: points, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.WarmStarts != 0 || resp.ColdFallbacks != 0 {
		t.Errorf("ablation sweep counted WarmStarts=%d ColdFallbacks=%d", resp.WarmStarts, resp.ColdFallbacks)
	}
	for _, p := range resp.Points {
		if p.Warm {
			t.Errorf("point %d warm-started under NoWarmStart", p.Index)
		}
	}
}

// TestGenerateBatchNominalMatchesGenerate pins that a batch of one
// nominal point is bit-identical to a plain Generate with the same
// pinned seed scales.
// TestGenerateBatchNominalMatchesGenerate: a one-point batch of the
// nominal circuit is the same request as Generate, so the wire bodies
// must be byte-identical — including the seed-fallback warning events of
// circuits without capacitors or without conductances.
func TestGenerateBatchNominalMatchesGenerate(t *testing.T) {
	parse := func(src string) *Circuit {
		c, err := ParseNetlist(src, "inline")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	load := func(path string) *Circuit {
		c, err := LoadNetlist(path)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rc, rcSpec := ladderSpec(5)
	for _, tc := range []struct {
		name string
		ckt  *Circuit
		spec Spec
	}{
		{"ladder5", rc, rcSpec},
		{"resistive", parse("divider\nR1 in out 1k\nR2 out 0 1k\n.end\n"), Spec{Kind: "vgain", In: "in", Out: "out"}},
		{"capacitive", parse("divider\nC1 in out 1n\nC2 out 0 1n\n.end\n"), Spec{Kind: "vgain", In: "in", Out: "out"}},
		{"opamp", load("../../testdata/opamp.sp"), Spec{Kind: "diffgain", In: "inp", Inn: "inn", Out: "out"}},
		{"rlc", load("../../testdata/rlc.sp"), Spec{Kind: "mna", Out: "out"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			direct, err := eng.Generate(context.Background(), Request{Circuit: tc.ckt, Spec: tc.spec})
			if err != nil {
				t.Fatal(err)
			}
			batch, err := eng.GenerateBatch(context.Background(), BatchRequest{Circuit: tc.ckt, Spec: tc.spec, Points: []BatchPoint{{}}})
			if err != nil {
				t.Fatal(err)
			}
			if err := batch.Points[0].Err; err != nil {
				t.Fatal(err)
			}
			want, err := EncodeResponseJSON(direct)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EncodeResponseJSON(batch.Points[0].Response)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("batch body (%d bytes) differs from Generate body (%d bytes)", len(got), len(want))
			}
		})
	}
}

// TestGenerateBatchMNA runs a sweep through the frequency-only MNA
// formulation: the shared-plan path and the forced unit conductance
// scale must hold across points.
func TestGenerateBatchMNA(t *testing.T) {
	ckt := circuits.OTA()
	inp, _, out := circuits.OTAInputs()
	ckt.AddV("vdrive", inp, "0", 1)
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	points := []BatchPoint{{}, {Scale: map[string]float64{"cl": 1.03}}, {Scale: map[string]float64{"cl": 0.97}}}
	resp, err := eng.GenerateBatch(context.Background(), BatchRequest{Circuit: ckt, Spec: Spec{Kind: "mna", Out: out}, Points: points})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failures != 0 {
		t.Fatalf("Failures = %d: %+v", resp.Failures, resp.Points)
	}
	for _, p := range resp.Points[1:] {
		if !p.Warm {
			t.Errorf("mna point %d did not warm-start (fallback: %q)", p.Index, p.ColdFallback)
		}
	}
}

// TestGenerateBatchCancelled pins the cancellation contract: the sweep
// stops at the cancelled point, keeps the computed prefix, and returns
// the context error.
func TestGenerateBatchCancelled(t *testing.T) {
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ckt, spec := ladderSpec(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp, err := eng.GenerateBatch(ctx, BatchRequest{Circuit: ckt, Spec: spec, Points: []BatchPoint{{}, {}}})
	if err == nil || ctx.Err() == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	if resp == nil || resp.Failures == 0 {
		t.Error("cancelled sweep did not record the failed point")
	}
}

func TestWarmStateNil(t *testing.T) {
	var r *Response
	if r.WarmState() != nil {
		t.Error("nil response yields warm state")
	}
	if (&Response{}).WarmState() != nil {
		t.Error("empty response yields warm state")
	}
}

// TestApplyPoint pins how a sweep point is built from its base: the
// factors multiply the named values of a copy, the base is left as it
// was, an empty point is the base itself, and each refusal keeps its
// message — a non-finite factor, a finite factor whose product with the
// value overflows, and unknown element names (an overflow is reported
// before them).
func TestApplyPoint(t *testing.T) {
	base, _ := ladderSpec(4)
	before := slices.Clone(base.Elements())
	if got, err := applyPoint(base, BatchPoint{}); got != base || err != nil {
		t.Errorf("empty point: (%p, %v), want the base (%p) itself", got, err, base)
	}
	got, err := applyPoint(base, BatchPoint{Scale: map[string]float64{"r2": 1.5, "c4": 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range got.Elements() {
		want := before[i]
		switch e.Name {
		case "r2":
			want.Value *= 1.5
		case "c4":
			want.Value *= 0.25
		}
		if e != want {
			t.Errorf("element %d = %v, want %v", i, e, want)
		}
	}
	if !slices.Equal(base.Elements(), before) {
		t.Error("applying a point changed the base circuit")
	}
	if !slices.Equal(got.Nodes(), base.Nodes()) || got.Name != base.Name {
		t.Errorf("point circuit %q nodes %v, base %q %v", got.Name, got.Nodes(), base.Name, base.Nodes())
	}

	for _, c := range []struct {
		scale map[string]float64
		want  string
	}{
		{map[string]float64{"r1": math.NaN()}, `engine: batch point scales "r1" by non-finite factor NaN`},
		{map[string]float64{"c2": math.Inf(-1)}, `engine: batch point scales "c2" by non-finite factor -Inf`},
		{map[string]float64{"r3": 1e306}, `engine: batch point: circuit: element "r3" has non-finite value +Inf`},
		{map[string]float64{"r3": -1e306}, `engine: batch point: circuit: element "r3" has non-finite value -Inf`},
		{map[string]float64{"nope2": 1.1, "r1": 0.9, "nope1": 1}, "engine: batch point scales unknown elements [nope1 nope2]"},
		{map[string]float64{"nope": 1, "r3": 1e306}, `engine: batch point: circuit: element "r3" has non-finite value +Inf`},
	} {
		got, err := applyPoint(base, BatchPoint{Scale: c.scale})
		if got != nil || err == nil || err.Error() != c.want {
			t.Errorf("scale %v: (%v, %v), want error %q", c.scale, got, err, c.want)
		}
	}
	if !slices.Equal(base.Elements(), before) {
		t.Error("a refused point changed the base circuit")
	}
}
