package engine_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/pkg/engine"
)

// storeEntries lists the store directory split into live entries,
// quarantined entries and temp residue.
func storeEntries(t *testing.T, dir string) (live, quarantined, tmp []string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.Contains(name, ".quarantined-"):
			quarantined = append(quarantined, name)
		case strings.Contains(name, ".tmp-"):
			tmp = append(tmp, name)
		default:
			live = append(live, name)
		}
	}
	return live, quarantined, tmp
}

// TestScheduleStoreQuarantinesCorruption proves the crash-recovery
// loop: a corrupt entry is moved aside (never deleted), the address
// reads cold, and the next converged Save restores warm starts — while
// the quarantined bytes survive for diagnosis.
func TestScheduleStoreQuarantinesCorruption(t *testing.T) {
	ws, key := biquadWarmState(t)
	dir := t.TempDir()
	store, err := engine.OpenScheduleStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(key, ws); err != nil {
		t.Fatal(err)
	}
	// Tear the live entry mid-JSON, as a crashed writer without the
	// temp+rename discipline would.
	path := filepath.Join(dir, key+".schedule.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	got, reason := store.Load(key)
	if got != nil {
		t.Fatal("Load accepted a torn entry")
	}
	if !strings.Contains(reason, "quarantined") {
		t.Errorf("reason %q does not mention the quarantine", reason)
	}
	if q := store.Quarantines(); q != 1 {
		t.Errorf("Quarantines() = %d, want 1", q)
	}
	live, quarantined, _ := storeEntries(t, dir)
	if len(live) != 0 {
		t.Errorf("corrupt entry still live: %v", live)
	}
	if len(quarantined) != 1 {
		t.Fatalf("want exactly one quarantined file, got %v", quarantined)
	}
	qraw, err := os.ReadFile(filepath.Join(dir, quarantined[0]))
	if err != nil || len(qraw) != len(raw)/3 {
		t.Errorf("quarantine did not preserve the corrupt bytes (%d bytes, err %v)", len(qraw), err)
	}

	// The address now reads as absent, and a fresh Save heals it.
	if _, reason := store.Load(key); reason != "no stored schedule" {
		t.Errorf("post-quarantine Load reason = %q, want cold miss", reason)
	}
	if err := store.Save(key, ws); err != nil {
		t.Fatal(err)
	}
	if healed, reason := store.Load(key); healed == nil {
		t.Errorf("healed entry still refused: %s", reason)
	}
}

// TestScheduleStoreTornWriteInjection drives Save through the
// deterministic disk-fault injector: a torn temp write reports success,
// the rename lands the truncation, and the next Load quarantines it —
// never serving the corrupt schedule.
func TestScheduleStoreTornWriteInjection(t *testing.T) {
	ws, key := biquadWarmState(t)
	plan := &faultfs.Plan{Seed: 7, TornWriteOneIn: 1}
	dir := t.TempDir()
	store, err := engine.OpenScheduleStore(dir, faultfs.New(plan))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(key, ws); err != nil {
		t.Fatalf("torn write must look like success to the writer, got %v", err)
	}
	if torn, _, _, _ := plan.Stats(); torn != 1 {
		t.Fatalf("injector tore %d writes, want 1", torn)
	}
	if got, _ := store.Load(key); got != nil {
		t.Fatal("Load served a torn schedule")
	}
	if store.Quarantines() == 0 {
		// An empty prefix leaves a zero-byte file, still a decode error.
		t.Error("torn entry was not quarantined")
	}
	if _, quarantined, _ := storeEntries(t, dir); len(quarantined) == 0 {
		t.Error("no quarantined file on disk")
	}
}

// TestScheduleStoreRenameFaultInjection: a failed rename surfaces as a
// Save error, removes the temp residue it can, and never touches the
// live entry.
func TestScheduleStoreRenameFaultInjection(t *testing.T) {
	ws, key := biquadWarmState(t)
	dir := t.TempDir()
	good, err := engine.OpenScheduleStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Save(key, ws); err != nil {
		t.Fatal(err)
	}

	plan := &faultfs.Plan{Seed: 3, RenameOneIn: 1}
	store, err := engine.OpenScheduleStore(dir, faultfs.New(plan))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(key, ws); err == nil {
		t.Fatal("Save swallowed an injected rename failure")
	}
	if got, reason := store.Load(key); got == nil {
		t.Errorf("failed Save damaged the live entry: %s", reason)
	}
	live, _, tmp := storeEntries(t, dir)
	if len(live) != 1 || len(tmp) != 0 {
		t.Errorf("store left residue: live %v, tmp %v", live, tmp)
	}
}

// TestScheduleStoreBitFlipInjection: one flipped bit anywhere in a
// saved entry — frame, hash or envelope — is caught by the SHA-256
// frame before the envelope is decoded. Every seed must read cold with
// the entry quarantined on disk; none may replay a damaged schedule.
func TestScheduleStoreBitFlipInjection(t *testing.T) {
	ws, key := biquadWarmState(t)
	for seed := int64(0); seed < 64; seed++ {
		plan := &faultfs.Plan{Seed: seed, BitFlipOneIn: 1}
		dir := t.TempDir()
		store, err := engine.OpenScheduleStore(dir, faultfs.New(plan))
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save(key, ws); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, flipped, _, _ := plan.Stats(); flipped != 1 {
			t.Fatalf("seed %d: injector flipped %d writes, want 1", seed, flipped)
		}
		if got, reason := store.Load(key); got != nil {
			t.Errorf("seed %d: Load accepted a bit-flipped entry", seed)
		} else if !strings.Contains(reason, "quarantined") {
			t.Errorf("seed %d: reason %q does not mention the quarantine", seed, reason)
		}
		if _, quarantined, _ := storeEntries(t, dir); len(quarantined) != 1 || store.Quarantines() != 1 {
			t.Errorf("seed %d: %d quarantined files, Quarantines() = %d, want 1 and 1",
				seed, len(quarantined), store.Quarantines())
		}
	}
}

// TestScheduleStoreQuarantineCapDeterministicNames: deterministic temp
// naming (pid + sequence) means crashed-writer residue is recognizable
// ".tmp-" files that Load never reads and Save never shadows.
func TestScheduleStoreTempResidueIgnored(t *testing.T) {
	ws, key := biquadWarmState(t)
	dir := t.TempDir()
	store, err := engine.OpenScheduleStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Residue from a "crashed" writer.
	if err := os.WriteFile(filepath.Join(dir, key+".tmp-999-1"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, reason := store.Load(key); got != nil || reason != "no stored schedule" {
		t.Fatalf("temp residue visible to Load: %v, %s", got, reason)
	}
	if err := store.Save(key, ws); err != nil {
		t.Fatal(err)
	}
	if got, reason := store.Load(key); got == nil {
		t.Fatalf("Save around residue failed: %s", reason)
	}
	if store.Quarantines() != 0 {
		t.Error("temp residue was quarantined; it should simply be ignored")
	}
}
