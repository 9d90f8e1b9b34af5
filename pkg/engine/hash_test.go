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

// TestKeySeedsResolved pins that an omitted seed is keyed as the
// heuristic it runs: an explicit seed equal to Circuit.SeedScales
// generates a byte-identical body and shares the key. A heuristic that
// falls back with a warning (no capacitors: frequency scale 1) does not
// resolve: only the omitted seed records the warning event, so the
// explicit 1 keeps its own key.
func TestKeySeedsResolved(t *testing.T) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(src string, spec engine.Spec, o engine.Options) (string, []byte) {
		t.Helper()
		req := engine.Request{Circuit: hashCircuit(t, src), Spec: spec, Options: &o}
		resp, err := eng.Generate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := engine.EncodeResponseJSON(resp)
		if err != nil {
			t.Fatal(err)
		}
		key, err := engine.RequestKey(req, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return key, body
	}
	rcgm := engine.Spec{Kind: "vgain", In: "in", Out: "out"}
	f, g := engine.DefaultScales(hashCircuit(t, rcgmNetlist))
	lcF, _ := engine.DefaultScales(hashCircuit(t, lcNetlist))
	for _, tc := range []struct {
		name string
		src  string
		spec engine.Spec
		o    engine.Options
	}{
		{"both seeds", rcgmNetlist, rcgm, engine.Options{InitFScale: f, InitGScale: g}},
		{"frequency seed only", rcgmNetlist, rcgm, engine.Options{InitFScale: f}},
		{"conductance seed only", rcgmNetlist, rcgm, engine.Options{InitGScale: g}},
		{"mna frequency seed", lcNetlist, engine.Spec{Kind: "mna", Out: "out"}, engine.Options{InitFScale: lcF}},
	} {
		k0, b0 := run(tc.src, tc.spec, engine.Options{})
		k1, b1 := run(tc.src, tc.spec, tc.o)
		if !bytes.Equal(b0, b1) {
			t.Errorf("%s: explicit heuristic seeds generated a different body", tc.name)
			continue
		}
		if k0 != k1 {
			t.Errorf("%s: byte-identical bodies split the key: %s vs %s", tc.name, k0, k1)
		}
	}

	// A resistive divider has no mean capacitance to invert.
	const divider = "div\nR1 in out 1k\nR2 out 0 1k\n.end\n"
	spec := engine.Spec{Kind: "vgain", In: "in", Out: "out"}
	if _, _, fwarn, _ := hashCircuit(t, divider).SeedScales(); fwarn == "" {
		t.Fatal("divider: no frequency-scale warning")
	}
	k0, b0 := run(divider, spec, engine.Options{})
	k1, b1 := run(divider, spec, engine.Options{InitFScale: 1})
	if bytes.Equal(b0, b1) {
		t.Error("divider: the omitted seed's warning event is missing from its body")
	}
	if k0 == k1 {
		t.Errorf("divider: explicit frequency scale 1 shares key %s with the warned fallback", k0)
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

// pipeNetlist has the nodes "a|", "a", "b" and "|b": the diffgain specs
// (a|, b) and (a, |b) once both spelled "spec diffgain|a||b|out" in the
// key text.
const pipeNetlist = "pipes\nR1 a| b 1k\nR2 a b 2k\nR3 |b out 3k\nR4 b out 1k\nC1 out 0 1n\nC2 a 0 2n\nR5 a 0 10k\nR6 |b 0 5k\nR7 a| 0 4k\n.end\n"

// TestKeySpecFieldsEscaped: two different specs whose fields join into
// the same text get different results and different keys.
func TestKeySpecFieldsEscaped(t *testing.T) {
	c := hashCircuit(t, pipeNetlist)
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	var bodies [][]byte
	for _, spec := range []engine.Spec{
		{Kind: "diffgain", In: "a|", Inn: "b", Out: "out"},
		{Kind: "diffgain", In: "a", Inn: "|b", Out: "out"},
	} {
		resp, err := eng.Generate(context.Background(), engine.Request{Circuit: c, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		body, err := engine.EncodeResponseJSON(resp)
		if err != nil {
			t.Fatal(err)
		}
		key, err := engine.CanonicalKey("nodal", c, spec, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		keys, bodies = append(keys, key), append(bodies, body)
	}
	if bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("the two specs generated the same body; the test circuit does not tell them apart")
	}
	if keys[0] == keys[1] {
		t.Errorf("different results share the key %s", keys[0])
	}
}
