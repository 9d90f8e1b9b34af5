package fault

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/pkg/engine"
)

// testCircuit is a small two-pole GC network: fast to generate, with
// enough structure that a few frames run.
func testCircuit() *engine.Circuit {
	c := circuit.New("gc2")
	c.AddG("g1", "in", "x", 1e-4).AddC("c1", "x", "0", 2e-12)
	c.AddG("g2", "x", "out", 5e-5).AddC("c2", "out", "0", 1e-12)
	c.AddG("gl", "out", "0", 1e-5)
	return c
}

var testSpec = engine.Spec{Kind: "vgain", In: "in", Out: "out"}

// generate runs the pipeline over testCircuit with the given plan and
// options, formulating through the fault-wrapped nodal backend.
func generate(t *testing.T, ctx context.Context, plan *Plan, opts *engine.Options) (*engine.Response, error) {
	t.Helper()
	inner, err := engine.LookupBackend("nodal", testSpec)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := testCircuit()
	form, err := New(inner, plan).Formulate(c, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Generate(ctx, engine.Request{Circuit: c, Spec: testSpec, Formulation: form, Options: opts})
}

func waitNoLeaks(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d at start, %d after settle window", baseline, runtime.NumGoroutine())
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRegisteredWrapperHealsWithRetries(t *testing.T) {
	// The "fault:" prefix must resolve through the registry, and
	// DefaultPlan (a pole pinned to angle 0) must heal entirely through
	// frame retries: same coefficients as a clean run, retries and
	// failure events on the record, not degraded.
	eng, err := engine.New(engine.Config{Backend: "fault:nodal"})
	if err != nil {
		t.Fatal(err)
	}
	c := testCircuit()
	form, err := eng.Formulate(c, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if form.Backend != "fault:nodal" {
		t.Errorf("Formulation.Backend = %q, want fault:nodal", form.Backend)
	}
	faulty, err := eng.Generate(context.Background(), engine.Request{Circuit: c, Spec: testSpec, Formulation: form})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Degraded() {
		t.Error("healed run reported degraded")
	}
	if faulty.Den.FrameRetries == 0 || len(faulty.Den.Faults()) == 0 {
		t.Errorf("retries = %d, events = %d; the pinned pole should fail every frame once",
			faulty.Den.FrameRetries, len(faulty.Den.Faults()))
	}

	clean, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := clean.Generate(context.Background(), engine.Request{Circuit: testCircuit(), Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range ref.Den.Coeffs {
		got := faulty.Den.Coeffs[i]
		if want.Status != got.Status {
			t.Errorf("s^%d: status %v (faulty) vs %v (clean)", i, got.Status, want.Status)
			continue
		}
		if want.Status == engine.Valid && !got.Value.ApproxEqual(want.Value, 1e-6) {
			t.Errorf("s^%d: %v (faulty) vs %v (clean)", i, got.Value, want.Value)
		}
	}
}

func TestEverySolveSingularTypedError(t *testing.T) {
	_, err := generate(t, context.Background(), &Plan{SingularOneIn: 1}, nil)
	if err == nil {
		t.Fatal("all-singular plan produced a result")
	}
	if !errors.Is(err, engine.ErrFrameFailed) || !errors.Is(err, engine.ErrSingularPoint) {
		t.Errorf("err %v does not match the taxonomy", err)
	}
}

func TestEverySolveSingularDegraded(t *testing.T) {
	resp, err := generate(t, context.Background(), &Plan{SingularOneIn: 1},
		&engine.Options{AllowDegraded: true})
	if err != nil {
		t.Fatalf("AllowDegraded returned an error: %v", err)
	}
	if !resp.Degraded() {
		t.Error("response not degraded")
	}
	deg := resp.Num
	if resp.Den != nil && resp.Den.Degraded() {
		deg = resp.Den
	}
	if deg == nil || len(deg.Faults()) == 0 {
		t.Error("degraded result has an empty failure log")
	}
}

func TestCorruptInjectsInf(t *testing.T) {
	_, err := generate(t, context.Background(), &Plan{CorruptOneIn: 1}, nil)
	if err == nil {
		t.Fatal("all-corrupt plan produced a result")
	}
	var spe *engine.SingularPointError
	if !errors.As(err, &spe) {
		t.Fatalf("err %v carries no *SingularPointError", err)
	}
	if spe.NaN {
		t.Error("corruption reported as NaN; Inf corruption must be distinguishable")
	}
}

func TestTransientFaultsFirstSightOnly(t *testing.T) {
	p := &Plan{TransientOneIn: 1, Seed: 9}
	s := complex(0.6, 0.8)
	if k := p.decide("numerator", s, 1e8, 1); k != faultNaN {
		t.Fatalf("first evaluation: kind %v, want faultNaN", k)
	}
	if k := p.decide("numerator", s, 1e8, 1); k != faultNone {
		t.Errorf("second evaluation of the same triple: kind %v, want faultNone", k)
	}
	// A different scale pair is a different triple: faulted again.
	if k := p.decide("numerator", s, 2e8, 1); k != faultNaN {
		t.Errorf("new triple: kind %v, want faultNaN", k)
	}
	// Another evaluator keeps its own memory: the numerator's first
	// sight does not heal the denominator, whichever pass runs first.
	if k := p.decide("denominator", s, 1e8, 1); k != faultNaN {
		t.Errorf("same triple, other evaluator: kind %v, want faultNaN", k)
	}
}

func TestHashDeterminism(t *testing.T) {
	a, b := &Plan{Seed: 5}, &Plan{Seed: 5}
	s := complex(0.1, -0.9)
	if a.hash(s, 1e8, 2) != b.hash(s, 1e8, 2) {
		t.Error("same seed, same triple, different hash")
	}
	if a.hash(s, 1e8, 2) == (&Plan{Seed: 6}).hash(s, 1e8, 2) {
		t.Error("different seeds collide on the same triple (suspicious)")
	}
}

// TestSerialParallelParityUnderFaults pins the determinism contract at
// the engine level: two fresh but identical hash-based plans must give
// bit-identical outcomes whether points are evaluated serially or by
// the worker pool.
func TestSerialParallelParityUnderFaults(t *testing.T) {
	plan := func() *Plan { return &Plan{Seed: 3, SingularOneIn: 5, CorruptOneIn: 17} }
	serial, serr := generate(t, context.Background(), plan(), &engine.Options{Parallelism: 1, AllowDegraded: true})
	parallel, perr := generate(t, context.Background(), plan(), &engine.Options{AllowDegraded: true})
	if (serr == nil) != (perr == nil) {
		t.Fatalf("outcome mismatch: serial err %v, parallel err %v", serr, perr)
	}
	if serr != nil {
		return // both failed identically typed; nothing further to compare
	}
	for _, pair := range []struct {
		name string
		a, b *engine.Result
	}{{"num", serial.Num, parallel.Num}, {"den", serial.Den, parallel.Den}} {
		if pair.a == nil || pair.b == nil {
			if pair.a != pair.b {
				t.Errorf("%s: one path produced a result, the other none", pair.name)
			}
			continue
		}
		if !reflect.DeepEqual(pair.a.Coeffs, pair.b.Coeffs) {
			t.Errorf("%s: coefficients differ between serial and parallel evaluation", pair.name)
		}
		if pair.a.Degraded() != pair.b.Degraded() || pair.a.FrameRetries != pair.b.FrameRetries ||
			pair.a.FailedFrames != pair.b.FailedFrames || len(pair.a.Faults()) != len(pair.b.Faults()) {
			t.Errorf("%s: failure accounting differs: serial (deg=%v r=%d f=%d e=%d) parallel (deg=%v r=%d f=%d e=%d)",
				pair.name,
				pair.a.Degraded(), pair.a.FrameRetries, pair.a.FailedFrames, len(pair.a.Faults()),
				pair.b.Degraded(), pair.b.FrameRetries, pair.b.FailedFrames, len(pair.b.Faults()))
		}
		// The quality event log is ordered by frame index and must be
		// identical event for event — the ordering pin that makes wire
		// bodies deterministic regardless of worker count.
		ea, eb := pair.a.Quality.Events, pair.b.Quality.Events
		if len(ea) != len(eb) {
			t.Errorf("%s: event counts differ: %d serial vs %d parallel", pair.name, len(ea), len(eb))
			continue
		}
		for i := range ea {
			if ea[i].Kind != eb[i].Kind || ea[i].Frame != eb[i].Frame ||
				ea[i].Target != eb[i].Target || ea[i].Detail != eb[i].Detail {
				t.Errorf("%s: event %d differs: serial %v, parallel %v", pair.name, i, ea[i], eb[i])
			}
		}
		if pair.a.Quality.Tier != pair.b.Quality.Tier {
			t.Errorf("%s: tier differs: %v serial vs %v parallel", pair.name, pair.a.Quality.Tier, pair.b.Quality.Tier)
		}
		if !reflect.DeepEqual(pair.a.Quality.Coefficients, pair.b.Quality.Coefficients) {
			t.Errorf("%s: error bars differ between serial and parallel evaluation", pair.name)
		}
	}
}

func TestCancelMidFrame(t *testing.T) {
	for _, tc := range []struct {
		name        string
		parallelism int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := generate(t, ctx, &Plan{CancelAfter: 3, OnCancel: cancel},
				&engine.Options{Parallelism: tc.parallelism})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			waitNoLeaks(t, baseline)
		})
	}
}

func TestLatencyAgainstDeadline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// One injected dispatch alone outlasts the deadline, so the overrun
	// does not depend on how many frames the circuit needs.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := generate(t, ctx, &Plan{Latency: 20 * time.Millisecond},
		&engine.Options{Parallelism: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	waitNoLeaks(t, baseline)
}

func TestBackendSurface(t *testing.T) {
	inner, err := engine.LookupBackend("nodal", testSpec)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultPlan()
	b := New(inner, p)
	if b.Name() != "fault:nodal" {
		t.Errorf("Name = %q, want fault:nodal", b.Name())
	}
	if b.Plan() != p {
		t.Error("Plan accessor does not return the wrapped plan")
	}
	defer func() {
		if recover() == nil {
			t.Error("New with nil plan did not panic")
		}
	}()
	New(inner, nil)
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	resp, err := generate(t, context.Background(), &Plan{}, &engine.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded() || resp.Den.FrameRetries != 0 || len(resp.Den.Faults()) != 0 {
		t.Errorf("zero plan left traces: degraded=%v retries=%d events=%d",
			resp.Degraded(), resp.Den.FrameRetries, len(resp.Den.Faults()))
	}
}
