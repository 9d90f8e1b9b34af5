package engine_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/circuits"
	"repro/pkg/engine"
)

// biquadWarmState generates the biquad fixture and extracts its
// warm-start schedules — the deterministic payload the schedule wire
// format and store tests pin.
func biquadWarmState(t *testing.T) (*engine.WarmStart, string) {
	t.Helper()
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	in, out := circuits.BiquadNodes()
	ckt := circuits.Biquad()
	spec := engine.Spec{Kind: "vgain", In: in, Out: out}
	resp, err := eng.Generate(t.Context(), engine.Request{Circuit: ckt, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	ws := resp.WarmState()
	if ws == nil {
		t.Fatal("no warm state extracted")
	}
	key, err := engine.RequestKey(engine.Request{Circuit: ckt, Spec: spec}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return ws, key
}

// TestScheduleGolden pins the schedule envelope byte for byte
// (regenerate with go test ./pkg/engine -run ScheduleGolden -update)
// and proves decoding reconstructs every scale bit-exactly.
func TestScheduleGolden(t *testing.T) {
	ws, key := biquadWarmState(t)
	raw, err := engine.EncodeWarmStartJSON(key, ws)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "schedule", "biquad.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("schedule envelope drifted from %s (%d vs %d bytes); if intentional, regenerate with -update and bump ScheduleWireVersion if incompatible",
			path, len(raw), len(want))
	}

	w, got, err := engine.DecodeWarmStartJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if w.Version != engine.ScheduleWireVersion || w.Key != key {
		t.Errorf("envelope header = (%d, %q), want (%d, %q)", w.Version, w.Key, engine.ScheduleWireVersion, key)
	}
	if !reflect.DeepEqual(got, ws) {
		t.Error("decoded warm start is not bit-identical to the original")
	}

	again, err := engine.EncodeWarmStartJSON(key, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again) {
		t.Error("re-encoding the decoded warm start changed bytes")
	}
}

// TestScheduleStoreWarmReplay proves the full persistence loop: a
// schedule saved by one converged run warm-starts a fresh run of the
// same request with zero adaptation iterations and bit-identical
// coefficients.
func TestScheduleStoreWarmReplay(t *testing.T) {
	ws, key := biquadWarmState(t)
	store, err := engine.OpenScheduleStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(key, ws); err != nil {
		t.Fatal(err)
	}
	loaded, reason := store.Load(key)
	if loaded == nil {
		t.Fatalf("Load refused a just-saved schedule: %s", reason)
	}

	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	in, out := circuits.BiquadNodes()
	spec := engine.Spec{Kind: "vgain", In: in, Out: out}
	cold, err := eng.Generate(t.Context(), engine.Request{Circuit: circuits.Biquad(), Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Generate(t.Context(), engine.Request{
		Circuit: circuits.Biquad(), Spec: spec,
		Options: &engine.Options{WarmStart: loaded},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*engine.Result{warm.Num, warm.Den} {
		if !r.WarmStarted {
			t.Fatalf("%s: not warm-started (cold fallback: %s)", r.Name, r.ColdFallback())
		}
		if adapt := len(r.Iterations) - r.ReplayedFrames; adapt != 0 {
			t.Errorf("%s: %d adaptation iterations after replay, want 0", r.Name, adapt)
		}
	}
	compareCoeffs(t, "num", cold.Num, warm.Num)
	compareCoeffs(t, "den", cold.Den, warm.Den)
}

// compareCoeffs asserts two results carry the same classification
// payload bit for bit (the Iteration provenance index legitimately
// differs between a cold run and its warm replay).
func compareCoeffs(t *testing.T, label string, a, b *engine.Result) {
	t.Helper()
	if len(a.Coeffs) != len(b.Coeffs) {
		t.Fatalf("%s: coefficient counts differ", label)
	}
	for i := range a.Coeffs {
		ca, cb := a.Coeffs[i], b.Coeffs[i]
		if ca.Status != cb.Status || ca.Value != cb.Value || ca.Bound != cb.Bound || ca.Quality != cb.Quality {
			t.Errorf("%s s^%d: warm replay diverged from cold run", label, i)
		}
	}
}

// TestScheduleStoreRejections drives every load-rejection path: each
// defect yields a nil WarmStart with a reason — a cold start, never an
// error or a misread schedule.
func TestScheduleStoreRejections(t *testing.T) {
	ws, key := biquadWarmState(t)
	valid, err := engine.EncodeWarmStartJSON(key, ws)
	if err != nil {
		t.Fatal(err)
	}
	degraded := &engine.WarmStart{Num: ws.Num, Den: ws.Den}
	dg := *ws.Num
	dg.Degraded = true
	degraded.Num = &dg
	degradedRaw, err := engine.EncodeWarmStartJSON(key, degraded)
	if err != nil {
		t.Fatal(err)
	}

	// Rows that must reach the envelope checks carry a valid frame; a
	// raw write would be refused by the frame first.
	framed := func(body []byte) []byte {
		return []byte(fmt.Sprintf("sha256:%x\n%s", sha256.Sum256(body), body))
	}
	for _, tc := range []struct {
		name   string
		body   []byte
		reason string
	}{
		{"missing file", nil, "no stored schedule"},
		{"truncated file", valid[:len(valid)/2], "unreadable"},
		{"not json", []byte("refkey v1 garbage"), "unreadable"},
		{"framed truncated envelope", framed(valid[:len(valid)/2]), "unreadable"},
		{"version mismatch", framed(bytes.Replace(valid, versionField(engine.ScheduleWireVersion), versionField(99), 1)), "version 99"},
		// Version 1 schedules replay the frames that confirmed structural
		// zeros by stalling; they must start cold, never replay.
		{"version 1 envelope", framed(bytes.Replace(valid, versionField(engine.ScheduleWireVersion), versionField(1), 1)), "version 1"},
		{"key mismatch", framed(bytes.Replace(valid, []byte(key), []byte(strings.Repeat("0", len(key))), 1)), "different request"},
		{"degraded provenance", framed(degradedRaw), "degraded provenance"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := engine.OpenScheduleStore(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != nil {
				if err := os.WriteFile(filepath.Join(store.Dir(), key+".schedule.json"), tc.body, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, reason := store.Load(key)
			if got != nil {
				t.Fatalf("Load accepted a %s", tc.name)
			}
			if !strings.Contains(reason, tc.reason) {
				t.Errorf("reason %q does not mention %q", reason, tc.reason)
			}
		})
	}

	store, err := engine.OpenScheduleStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(key, degraded); err == nil {
		t.Error("Save accepted a degraded schedule")
	}
}

// FuzzScheduleRoundTrip fuzzes the stored-envelope decoder: anything it
// accepts must re-encode deterministically and survive a second decode
// bit-identically — the property that makes on-disk schedules safe to
// replay. Rejections must be errors, never panics.
func FuzzScheduleRoundTrip(f *testing.F) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		f.Fatal(err)
	}
	in, out := circuits.BiquadNodes()
	resp, err := eng.Generate(context.Background(), engine.Request{
		Circuit: circuits.Biquad(),
		Spec:    engine.Spec{Kind: "vgain", In: in, Out: out},
	})
	if err != nil {
		f.Fatal(err)
	}
	if raw, err := engine.EncodeWarmStartJSON("seedkey", resp.WarmState()); err == nil {
		f.Add(raw)
	}
	f.Add([]byte(`{"version":1,"key":"k","den":{"name":"denominator","m":2,"order":2,"sig_digits":6,"seed_fscale":"1p0","seed_gscale":"1p0","frames":[{"fscale":"1.5p30","gscale":"1p-3","purpose":"initial"}]}}`))
	f.Add([]byte(`{"version":2,"key":"","num":{"frames":[{"fscale":"bad"}]}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		w, ws, err := engine.DecodeWarmStartJSON(raw)
		if err != nil {
			return
		}
		enc, err := engine.EncodeWarmStartJSON(w.Key, ws)
		if err != nil {
			// Decoded scales are finite by construction (the xmath text
			// form only spells finite values), so encode cannot refuse.
			t.Fatalf("decoded envelope failed to re-encode: %v", err)
		}
		w2, ws2, err := engine.DecodeWarmStartJSON(enc)
		if err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v", err)
		}
		if !reflect.DeepEqual(ws, ws2) {
			t.Fatal("schedules changed across encode/decode round trip")
		}
		enc2, err := engine.EncodeWarmStartJSON(w2.Key, ws2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encoding is not deterministic")
		}
	})
}

// TestScheduleStoreConcurrentSaveLoad hammers one content address with
// concurrent Save and Load goroutines: the atomic temp-file+rename
// write means a Load observes either no file at all (before the first
// rename lands) or a complete, validating envelope — never a truncated
// or mixed body. Run under -race in CI, this pins the store's lock-free
// visibility contract.
func TestScheduleStoreConcurrentSaveLoad(t *testing.T) {
	ws, key := biquadWarmState(t)
	store, err := engine.OpenScheduleStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers, rounds = 4, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := store.Save(key, ws); err != nil {
					t.Errorf("concurrent save: %v", err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, reason := store.Load(key)
				if got == nil && reason != "no stored schedule" {
					t.Errorf("concurrent load saw a partial write: %s", reason)
					return
				}
				if got != nil && (got.Num == nil || got.Den == nil ||
					got.Num.Name != ws.Num.Name || got.Den.Name != ws.Den.Name) {
					t.Error("concurrent load returned a mangled schedule")
					return
				}
			}
		}()
	}
	wg.Wait()
	// After the dust settles the stored envelope must load clean and
	// replay-equivalent to what every writer stored.
	got, reason := store.Load(key)
	if got == nil {
		t.Fatalf("final load refused: %s", reason)
	}
	if !reflect.DeepEqual(got, ws) {
		t.Error("final stored schedule is not the one the writers saved")
	}
}

// versionField renders the envelope's version member as the indented
// encoder writes it.
func versionField(v int) []byte { return []byte(fmt.Sprintf(`"version": %d`, v)) }
