package engine_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/pkg/engine"
)

const hashNetlistA = "rc\nR1 in n1 1k\nC1 n1 0 1n\nRl n1 0 1meg\n.end\n"

// hashNetlistB is the same circuit respelled: reordered cards, renamed
// elements, ground aliased, values in different units, comments added.
const hashNetlistB = "other title\n* a comment\nCx n1 gnd 1000p ; load\nRload n1 0 1MEG\nRs in n1 1000\n.end\n"

func hashCircuit(t *testing.T, src string) *engine.Circuit {
	t.Helper()
	c, err := engine.ParseNetlist(src, "hash-test")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCanonicalKeyInvariance(t *testing.T) {
	spec := engine.Spec{Kind: "vgain", In: "in", Out: "n1"}
	a, err := engine.CanonicalKey("nodal", hashCircuit(t, hashNetlistA), spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.CanonicalKey("nodal", hashCircuit(t, hashNetlistB), spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("respelled netlist changed the key: %s vs %s", a, b)
	}

	changed := "rc\nR1 in n1 1k\nC1 n1 0 2n\nRl n1 0 1meg\n.end\n"
	c, err := engine.CanonicalKey("nodal", hashCircuit(t, changed), spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("changed capacitor value kept the key")
	}

	otherSpec, err := engine.CanonicalKey("nodal", hashCircuit(t, hashNetlistA),
		engine.Spec{Kind: "transz", In: "in", Out: "n1"}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if otherSpec == a {
		t.Error("changed spec kind kept the key")
	}

	otherBackend, err := engine.CanonicalKey("exact", hashCircuit(t, hashNetlistA), spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if otherBackend == a {
		t.Error("changed backend kept the key")
	}
}

func TestCanonicalKeyOptions(t *testing.T) {
	spec := engine.Spec{Kind: "vgain", In: "in", Out: "n1"}
	key := func(o engine.Options) string {
		t.Helper()
		k, err := engine.CanonicalKey("nodal", hashCircuit(t, hashNetlistA), spec, o)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := key(engine.Options{})

	// Result-relevant options must split the address.
	for name, o := range map[string]engine.Options{
		"SigDigits":     {SigDigits: 9},
		"TuningR":       {TuningR: -0.5},
		"MaxIterations": {MaxIterations: 7},
		"NoReduce":      {NoReduce: true},
		"InitFScale":    {InitFScale: 1e6},
		"SingleFactor":  {SingleFactor: true},
		"AllowDegraded": {AllowDegraded: true},
		"FrameRetries":  {FrameRetries: 5},
	} {
		if key(o) == base {
			t.Errorf("option %s did not change the key", name)
		}
	}

	// Execution-only options must not: they change wall clock, never
	// the result bits, so hot requests with different worker counts or
	// hooks share cache entries.
	for name, o := range map[string]engine.Options{
		"Parallelism": {Parallelism: 8},
		"Observer":    {Observer: func(engine.Iteration) {}},
		"MaxSolves":   {MaxSolves: 5},
	} {
		if key(o) != base {
			t.Errorf("execution-only option %s changed the key", name)
		}
	}
}

// rcgmNetlist is a small RC stage driving a transconductor: the joint
// N/D cache and the Hermitian mirror both change its solve counts.
const rcgmNetlist = "rcgm\nR1 in n1 1k\nC1 n1 0 1n\nG1 out 0 n1 0 1m\nR2 out 0 10k\nC2 out 0 1p\n.end\n"

// lcNetlist drives an RLC section from its own source: the mna
// backend, which is frequency-only.
const lcNetlist = "lc\nV1 in 0 1\nR1 in n1 50\nL1 n1 out 1u\nC1 out 0 1n\nRl out 0 50\n.end\n"

// TestKeyIdentity is the content-address contract: spellings with one
// normalized meaning share a key and generate byte-identical bodies,
// and settings that can change a body keep distinct keys.
func TestKeyIdentity(t *testing.T) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rcgm := engine.Spec{Kind: "vgain", In: "in", Out: "out"}
	mna := engine.Spec{Kind: "mna", Out: "out"}
	run := func(src string, spec engine.Spec, o engine.Options) (string, []byte) {
		t.Helper()
		c := hashCircuit(t, src)
		req := engine.Request{Circuit: c, Spec: spec, Options: &o}
		key, err := engine.RequestKey(req, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := eng.Generate(context.Background(), req)
		if err != nil {
			// A refused run is an outcome too: it is what the key names.
			return key, []byte("error: " + err.Error())
		}
		body, err := engine.EncodeResponseJSON(resp)
		if err != nil {
			t.Fatal(err)
		}
		return key, body
	}

	same := []struct {
		name string
		src  string
		spec engine.Spec
		a, b engine.Options
	}{
		{"sig_digits 6", rcgmNetlist, rcgm, engine.Options{}, engine.Options{SigDigits: 6}},
		{"max_iterations 64", rcgmNetlist, rcgm, engine.Options{}, engine.Options{MaxIterations: 64}},
		{"stall_limit 3", rcgmNetlist, rcgm, engine.Options{}, engine.Options{StallLimit: 3}},
		{"frame_retries 2", rcgmNetlist, rcgm, engine.Options{}, engine.Options{FrameRetries: 2}},
		{"watchdog_stall 12", rcgmNetlist, rcgm, engine.Options{}, engine.Options{WatchdogStall: 12}},
		{"max_scale_drift_log10 18", rcgmNetlist, rcgm, engine.Options{}, engine.Options{MaxScaleDriftLog10: 18}},
		{"frame_retries -1 vs -7", rcgmNetlist, rcgm, engine.Options{FrameRetries: -1}, engine.Options{FrameRetries: -7}},
		{"watchdog_stall -1 vs -3", rcgmNetlist, rcgm, engine.Options{WatchdogStall: -1}, engine.Options{WatchdogStall: -3}},
		{"stall_limit 2 vs watchdog_stall 8", rcgmNetlist, rcgm, engine.Options{StallLimit: 2}, engine.Options{StallLimit: 2, WatchdogStall: 8}},
		{"tuning_r -0", rcgmNetlist, rcgm, engine.Options{}, engine.Options{TuningR: math.Copysign(0, -1)}},
		{"mna init_gscale 1", lcNetlist, mna, engine.Options{}, engine.Options{InitGScale: 1}},
		{"mna single_factor", lcNetlist, mna, engine.Options{}, engine.Options{SingleFactor: true}},
		{"mna drift -1 vs omitted", lcNetlist, mna, engine.Options{}, engine.Options{MaxScaleDriftLog10: -1}},
	}
	for _, tc := range same {
		ka, ba := run(tc.src, tc.spec, tc.a)
		kb, bb := run(tc.src, tc.spec, tc.b)
		if ka != kb {
			t.Errorf("%s: equal-meaning spellings got keys %s and %s", tc.name, ka, kb)
		}
		if !bytes.Equal(ba, bb) {
			t.Errorf("%s: equal-meaning spellings generated different bodies", tc.name)
		}
	}

	// Each pair can generate different bodies, so it must never share a
	// key. Those marked bodyDiff do differ here: the mirror halves the
	// solves, the joint cache feeds the denominator's hits, and under the
	// frequency-only mna formulation an omitted drift bound means no
	// bound, while 18 decades trips the divergence watchdog.
	differ := []struct {
		name     string
		src      string
		spec     engine.Spec
		a, b     engine.Options
		bodyDiff bool
	}{
		{"no_mirror", rcgmNetlist, rcgm, engine.Options{}, engine.Options{NoMirror: true}, true},
		{"no_joint", rcgmNetlist, rcgm, engine.Options{}, engine.Options{NoJoint: true}, true},
		{"no_reduce", rcgmNetlist, rcgm, engine.Options{}, engine.Options{NoReduce: true}, false},
		{"single_factor", rcgmNetlist, rcgm, engine.Options{}, engine.Options{SingleFactor: true}, false},
		{"sig_digits 7", rcgmNetlist, rcgm, engine.Options{}, engine.Options{SigDigits: 7}, true},
		{"mna drift omitted vs 18", lcNetlist, mna, engine.Options{}, engine.Options{MaxScaleDriftLog10: 18}, true},
	}
	for _, tc := range differ {
		ka, ba := run(tc.src, tc.spec, tc.a)
		kb, bb := run(tc.src, tc.spec, tc.b)
		if ka == kb {
			t.Errorf("%s: settings that can change the body share key %s", tc.name, ka)
		}
		if tc.bodyDiff && bytes.Equal(ba, bb) {
			t.Errorf("%s: expected different bodies", tc.name)
		}
	}
}

// TestKeyFrequencyOnlyThroughWrappers pins that the key path learns the
// frequency-only override from the resolved backend, wrappers included:
// an omitted drift bound and an explicit "no bound" share the key, 18
// decades does not.
func TestKeyFrequencyOnlyThroughWrappers(t *testing.T) {
	if !slices.Contains(engine.Wrappers(), "keytest") { // registered already under -count=2
		engine.RegisterWrapper("keytest", func(b engine.Backend) engine.Backend { return b })
	}
	c := hashCircuit(t, lcNetlist)
	for _, backend := range []string{"mna", "keytest:mna", "keytest:", "keytest:keytest:mna"} {
		key := func(o engine.Options) string {
			t.Helper()
			k, err := engine.RequestKey(engine.Request{Circuit: c, Spec: engine.Spec{Kind: "mna", Out: "out"}, Options: &o},
				engine.Config{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			return k
		}
		if key(engine.Options{}) != key(engine.Options{MaxScaleDriftLog10: -1}) {
			t.Errorf("%s: omitted drift and no bound split the key", backend)
		}
		if key(engine.Options{}) == key(engine.Options{MaxScaleDriftLog10: 18}) {
			t.Errorf("%s: omitted drift and 18 decades share a key", backend)
		}
	}
}

// TestBadOptionsRefused pins the range check: options no generator can
// honor fail with ErrBadOptions before any solve, from Generate, the
// key and the batch path alike, instead of certifying nonsense (at
// σ ≥ 14 nothing clears the noise floor, so every coefficient would
// come back as a certified zero).
func TestBadOptionsRefused(t *testing.T) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := hashCircuit(t, rcgmNetlist)
	spec := engine.Spec{Kind: "vgain", In: "in", Out: "out"}
	for name, o := range map[string]engine.Options{
		"sig_digits 13":     {SigDigits: 13},
		"sig_digits 14":     {SigDigits: 14},
		"sig_digits -1":     {SigDigits: -1},
		"max_iterations -1": {MaxIterations: -1},
		"stall_limit -2":    {StallLimit: -2},
		"parallelism -1":    {Parallelism: -1},
		"tuning_r NaN":      {TuningR: math.NaN()},
		"tuning_r +Inf":     {TuningR: math.Inf(1)},
		"init_fscale -1":    {InitFScale: -1},
		"init_fscale +Inf":  {InitFScale: math.Inf(1)},
		"init_gscale NaN":   {InitGScale: math.NaN()},
		"init_gscale -1e-3": {InitGScale: -1e-3},
		"drift NaN":         {MaxScaleDriftLog10: math.NaN()},
	} {
		o := o
		resp, err := eng.Generate(context.Background(), engine.Request{Circuit: c, Spec: spec, Options: &o})
		if !errors.Is(err, engine.ErrBadOptions) || resp != nil {
			t.Errorf("%s: Generate = (%v, %v), want nil and ErrBadOptions", name, resp, err)
		}
		if _, err := engine.RequestKey(engine.Request{Circuit: c, Spec: spec, Options: &o}, engine.Config{}); !errors.Is(err, engine.ErrBadOptions) {
			t.Errorf("%s: RequestKey err = %v, want ErrBadOptions", name, err)
		}
		if _, err := eng.GenerateBatch(context.Background(), engine.BatchRequest{
			Circuit: c, Spec: spec, Points: []engine.BatchPoint{{}}, Options: &o,
		}); !errors.Is(err, engine.ErrBadOptions) {
			t.Errorf("%s: GenerateBatch err = %v, want ErrBadOptions", name, err)
		}
	}
	// The range edge is accepted.
	if _, err := engine.RequestKey(engine.Request{Circuit: c, Spec: spec, Options: &engine.Options{SigDigits: 12}}, engine.Config{}); err != nil {
		t.Errorf("sig_digits 12 refused: %v", err)
	}
}

func TestRequestKey(t *testing.T) {
	c := hashCircuit(t, hashNetlistA)
	spec := engine.Spec{Kind: "vgain", In: "in", Out: "n1"}
	req := engine.Request{Circuit: c, Spec: spec}

	got, err := engine.RequestKey(req, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.CanonicalKey("nodal", c, spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("auto-selected backend did not resolve to nodal")
	}

	mnaReq := engine.Request{Circuit: c, Spec: engine.Spec{Kind: "mna"}}
	gotMNA, err := engine.RequestKey(mnaReq, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantMNA, err := engine.CanonicalKey("mna", c, engine.Spec{Kind: "mna"}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gotMNA != wantMNA {
		t.Error("mna spec kind did not resolve to the mna backend")
	}

	gotExact, err := engine.RequestKey(req, engine.Config{Backend: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	if gotExact == want {
		t.Error("explicit Config.Backend was ignored")
	}

	over := engine.Options{SigDigits: 9}
	gotOver, err := engine.RequestKey(engine.Request{Circuit: c, Spec: spec, Options: &over}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantOver, err := engine.CanonicalKey("nodal", c, spec, over)
	if err != nil {
		t.Fatal(err)
	}
	if gotOver != wantOver {
		t.Error("request Options override was not keyed")
	}
	if gotOver == want {
		t.Error("request Options override did not change the key")
	}
}
