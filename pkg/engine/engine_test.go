package engine

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/mna"
	"repro/internal/nodal"
)

func TestBackendsRegistered(t *testing.T) {
	names := Backends()
	for _, want := range []string{"exact", "mna", "nodal"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Backends() = %v, missing %q", names, want)
		}
	}
}

// fakeBackend checks test registration: the registry must accept
// backends from outside the package.
type fakeBackend struct{ name string }

func (b fakeBackend) Name() string { return b.name }
func (b fakeBackend) Formulate(c *Circuit, spec Spec) (*Formulation, error) {
	return nil, errors.New("fake backend")
}

func TestRegisterCustomBackend(t *testing.T) {
	// A second run of the test (-count=2) finds it registered already.
	if !slices.Contains(Backends(), "test-fake") {
		Register(fakeBackend{name: "test-fake"})
	}
	eng, err := New(Config{Backend: "test-fake"})
	if err != nil {
		t.Fatalf("New with registered custom backend: %v", err)
	}
	if _, err := eng.Formulate(circuits.OTA(), Spec{Kind: "vgain"}); err == nil || !strings.Contains(err.Error(), "fake backend") {
		t.Fatalf("custom backend not dispatched, err = %v", err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(fakeBackend{name: "nodal"})
}

func TestNewUnknownBackend(t *testing.T) {
	if _, err := New(Config{Backend: "no-such"}); err == nil {
		t.Fatal("New accepted unknown backend")
	}
}

// TestFormulateErrors: the auto-selected backends formulate every kind
// and refuse what their formulation cannot express instead of
// formulating something else.
func TestFormulateErrors(t *testing.T) {
	rc := circuits.RCLadder(2, 1e3, 1e-9)
	sourced := circuits.RCLadder(2, 1e3, 1e-9)
	sourced.AddV("vsrc", "in", "0", 1)
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{
		{Kind: "vgain", In: "in", Out: "n2"},
		{Kind: "diffgain", In: "in", Inn: "n1", Out: "n2"},
		{Kind: "transz", In: "in", Out: "n2"},
		{Kind: "mna", Out: "n2"},
	} {
		ckt := rc
		if spec.Kind == "mna" {
			ckt = sourced
		}
		if f, err := eng.Formulate(ckt, spec); err != nil || f.TF == nil {
			t.Fatalf("kind %s refused: %v", spec.Kind, err)
		}
	}
	for _, tc := range []struct {
		name string
		ckt  *Circuit
		spec Spec
	}{
		{"unknown kind", rc, Spec{Kind: "bogus", In: "in", Out: "n2"}},
		{"unknown node", rc, Spec{Kind: "vgain", In: "in", Out: "zz"}},
		{"source-free mna", rc, Spec{Kind: "mna", Out: "n2"}},
		{"cofactor kind on a sourced circuit", sourced, Spec{Kind: "vgain", In: "in", Out: "n2"}},
	} {
		if _, err := eng.Formulate(tc.ckt, tc.spec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestBackendKindMismatch(t *testing.T) {
	eng, err := New(Config{Backend: "mna"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Formulate(circuits.OTA(), Spec{Kind: "vgain", In: "inp", Out: "out"}); err == nil {
		t.Fatal("mna backend accepted kind vgain")
	}
	eng, err = New(Config{Backend: "nodal"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Formulate(circuits.OTA(), Spec{Kind: "mna", Out: "out"}); err == nil {
		t.Fatal("nodal backend accepted kind mna")
	}
}

// TestGenerateMatchesDirectPipeline pins the behavior-preservation
// contract: the engine must produce the same Results as a formulation
// built directly with nodal and generated by core.
func TestGenerateMatchesDirectPipeline(t *testing.T) {
	ckt := circuits.OTA()
	inp, inn, out := circuits.OTAInputs()
	spec := Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out}

	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Generate(context.Background(), Request{Circuit: ckt, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Formulation.Backend != "nodal" {
		t.Errorf("auto backend = %q, want nodal", resp.Formulation.Backend)
	}

	sys, err := nodal.Build(ckt)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := sys.DifferentialVoltageGain(ckt, inp, inn, out)
	if err != nil {
		t.Fatal(err)
	}
	wantNum, wantDen, err := core.GenerateTransferFunction(ckt, tf, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := &check.Report{}
	check.ParityResults(resp.Num, wantNum, rep)
	check.ParityResults(resp.Den, wantDen, rep)
	if !rep.Ok() {
		t.Fatalf("engine result differs from direct pipeline:\n%s", rep)
	}
}

// TestGenerateMNA pins the MNA request path: FrequencyOnly must force
// the single-factor configuration exactly as the refgen CLI did.
func TestGenerateMNA(t *testing.T) {
	ckt := circuits.OTA()
	inp, _, out := circuits.OTAInputs()
	// The MNA formulation is driven by the circuit's own sources.
	ckt.AddV("vdrive", inp, "0", 1)
	spec := Spec{Kind: "mna", Out: out}

	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Generate(context.Background(), Request{Circuit: ckt, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Formulation.FrequencyOnly {
		t.Error("mna formulation not marked FrequencyOnly")
	}

	msys, err := mna.Build(ckt)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := msys.TransferEvaluators(out)
	if err != nil {
		t.Fatal(err)
	}
	wantNum, wantDen, err := core.GenerateTransferFunction(ckt, tf, core.Config{SingleFactor: true, InitGScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := &check.Report{}
	check.ParityResults(resp.Num, wantNum, rep)
	check.ParityResults(resp.Den, wantDen, rep)
	if !rep.Ok() {
		t.Fatalf("engine MNA result differs from direct pipeline:\n%s", rep)
	}
}

// TestFrequencyOnlyMatchesFormulation: the key path decides the
// frequency-only override from the backend name alone; it must agree
// with what each registered backend actually formulates.
func TestFrequencyOnlyMatchesFormulation(t *testing.T) {
	rc, vgain := circuits.RCLadder(3, 1e3, 1e-9), Spec{Kind: "vgain", In: "in", Out: circuits.RCLadderOut(3)}
	lc, mna := lcLadderSpec()
	for _, tc := range []struct {
		backend string
		ckt     *Circuit
		spec    Spec
	}{{"", rc, vgain}, {"nodal", rc, vgain}, {"exact", rc, vgain}, {"", lc, mna}, {"mna", lc, mna}} {
		b, err := lookup(tc.backend, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		f, err := b.Formulate(tc.ckt, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := frequencyOnly(tc.backend, tc.spec); got != f.FrequencyOnly {
			t.Errorf("backend %q kind %s: key path says frequency-only %v, formulation %v", tc.backend, tc.spec.Kind, got, f.FrequencyOnly)
		}
	}
}

// TestExactBackendAgreesWithNodal cross-checks the oracle backend
// against adaptive generation on the nodal formulation.
func TestExactBackendAgreesWithNodal(t *testing.T) {
	ckt := circuits.RCLadder(4, 1e3, 1e-9)
	spec := Spec{Kind: "vgain", In: "in", Out: circuits.RCLadderOut(4)}

	exEng, err := New(Config{Backend: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := exEng.Formulate(ckt, spec)
	if err != nil {
		t.Fatal(err)
	}
	if f.ExactNum == nil || f.ExactDen == nil {
		t.Fatal("exact backend returned no reference polynomials")
	}

	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Generate(context.Background(), Request{Circuit: ckt, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	rep := &check.Report{}
	check.VsPoly(resp.Num, f.ExactNum, 1e-4, 4, rep)
	check.VsPoly(resp.Den, f.ExactDen, 1e-4, 4, rep)
	if !rep.Ok() {
		t.Fatalf("adaptive result disagrees with exact oracle:\n%s", rep)
	}
}

func TestObserverSeesEveryIteration(t *testing.T) {
	ckt := circuits.OTA()
	inp, inn, out := circuits.OTAInputs()
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var seen []Iteration
	resp, err := eng.Generate(context.Background(), Request{
		Circuit:  ckt,
		Spec:     Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out},
		Observer: func(it Iteration) { seen = append(seen, it) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := len(resp.Num.Iterations) + len(resp.Den.Iterations)
	if len(seen) != want {
		t.Fatalf("observer saw %d iterations, want %d", len(seen), want)
	}
	if seen[0].Purpose != "initial" {
		t.Errorf("first observed iteration purpose = %q, want initial", seen[0].Purpose)
	}
}

func TestInterpolate(t *testing.T) {
	ckt := circuits.OTA()
	inp, inn, out := circuits.OTAInputs()
	spec := Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out}
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := eng.Formulate(ckt, spec)
	if err != nil {
		t.Fatal(err)
	}
	fsc, gsc := DefaultScales(ckt)
	num, den, err := eng.Interpolate(context.Background(), f, fsc, gsc)
	if err != nil {
		t.Fatal(err)
	}
	if num.K == 0 || den.K == 0 {
		t.Fatalf("empty interpolation results: num.K=%d den.K=%d", num.K, den.K)
	}
	if _, _, ok := ValidRegion(den.Normalized, 6); !ok {
		t.Error("heuristic scales produced no valid region in the denominator")
	}
}

func TestACResponse(t *testing.T) {
	ckt := circuits.OTA()
	inp, inn, out := circuits.OTAInputs()
	driven := circuits.OTA()
	driven.AddV("vsrc", inp, inn, 1)
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ckt  *Circuit
		spec Spec
		ok   bool
	}{
		{ckt, Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out}, true},
		{driven, Spec{Kind: "mna", Out: out}, true},
		// A misspelled kind must be refused, not answered with zeros.
		{ckt, Spec{Kind: "vgian", In: inp, Out: out}, false},
	} {
		h, err := eng.ACResponse(context.Background(), tc.ckt, tc.spec, []float64{1, 1e3, 1e6})
		if !tc.ok {
			if err == nil {
				t.Errorf("kind %q: accepted, response %v", tc.spec.Kind, h)
			}
			continue
		}
		if err != nil {
			t.Fatalf("kind %q: %v", tc.spec.Kind, err)
		}
		if len(h) != 3 {
			t.Fatalf("kind %q: got %d response points, want 3", tc.spec.Kind, len(h))
		}
		for i, v := range h {
			if v == 0 {
				t.Errorf("kind %q: response point %d is zero", tc.spec.Kind, i)
			}
		}
	}
}

func TestGenerateCanceledContext(t *testing.T) {
	ckt := circuits.OTA()
	inp, inn, out := circuits.OTAInputs()
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp, err := eng.Generate(ctx, Request{Circuit: ckt, Spec: Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if resp == nil || resp.Num == nil {
		t.Fatal("no partial response on cancellation")
	}
	if len(resp.Num.Iterations) != 0 {
		t.Errorf("pre-canceled context still ran %d iterations", len(resp.Num.Iterations))
	}
}

func TestParseNetlistRoundTrip(t *testing.T) {
	src := "* rc lowpass\nR1 in out 1k\nC1 out 0 1u\n"
	ckt, err := ParseNetlist(src, "rc.sp")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Generate(context.Background(), Request{Circuit: ckt, Spec: Spec{Kind: "vgain", In: "in", Out: "out"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Den.Order() != 1 {
		t.Errorf("RC lowpass denominator order = %d, want 1", resp.Den.Order())
	}
}
