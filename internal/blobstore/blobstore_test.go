package blobstore_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/faultfs"
)

const (
	keyA = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
	keyB = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
)

// framed spells the on-disk format literally: "sha256:<lowercase
// hex>\n" + body.
func framed(body []byte) []byte {
	return []byte(fmt.Sprintf("sha256:%x\n%s", sha256.Sum256(body), body))
}

// body is a plain multi-line entry body: the store frames bytes and
// never looks inside them.
var body = []byte("{\n  \"tier\": \"exact\",\n  \"coeffs\": [1, 0.5, 0.25]\n}\n")

// entries splits a directory listing into live entries, quarantine
// evidence and temp residue.
func entries(t *testing.T, dir string) (live, quarantined, tmp int) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		switch name := e.Name(); {
		case strings.Contains(name, ".quarantined-"):
			quarantined++
		case strings.Contains(name, ".tmp-"):
			tmp++
		default:
			live++
		}
	}
	return live, quarantined, tmp
}

// TestStore drives one entry of each defect class through the serving
// path (Get) and the offline audit (Verify, Scrub, Verify).
func TestStore(t *testing.T) {
	const ext = blobstore.Ext
	good := framed(body)
	flipped := bytes.Clone(good)
	flipped[len(flipped)-len(body)/2] ^= 0x04
	// The same hash in uppercase hex: hex decoding would accept it, the
	// frame's exact spelling must not.
	upper := append([]byte("sha256:"+strings.ToUpper(fmt.Sprintf("%x", sha256.Sum256(body)))+"\n"), body...)

	for _, tc := range []struct {
		name, file string
		raw        []byte
		// frameOK: Get serves the body. corrupt: the audit flags it. A
		// row with neither is not an entry.
		frameOK, corrupt bool
	}{
		{"valid", keyA + ext, good, true, false},
		{"torn", keyA + ext, good[:len(good)/2], false, true},
		{"bit flip", keyA + ext, flipped, false, true},
		{"unframed legacy", keyA + ext, body, false, true},
		{"empty", keyA + ext, nil, false, true},
		{"uppercase hash", keyA + ext, upper, false, true},
		{"tmp residue", keyA + ".tmp-999-1", good[:10], false, false},
		// The frame binds the body, not the file name: a well-framed
		// entry filed under another key is served as stored.
		{"key mismatch", keyB + ext, good, true, false},
	} {
		t.Run(ext+"/"+tc.name, func(t *testing.T) {
			key, _ := strings.CutSuffix(tc.file, ext)
			isEntry := tc.frameOK || tc.corrupt

			// Serving path: frame defects are quarantined on read.
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, tc.file), tc.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			store, err := blobstore.Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := store.Get(key)
			switch {
			case tc.frameOK:
				if err != nil || !bytes.Equal(got, body) {
					t.Fatalf("Get = (%d bytes, %v), want the stored body", len(got), err)
				}
			case isEntry:
				if !errors.Is(err, blobstore.ErrCorrupt) {
					t.Fatalf("Get error %v, want ErrCorrupt", err)
				}
			default:
				if err == nil || errors.Is(err, blobstore.ErrCorrupt) {
					t.Fatalf("Get error %v, want a plain miss", err)
				}
			}
			wantQ := 0
			if isEntry && !tc.frameOK {
				wantQ = 1
			}
			if st := store.Stats(); int(st.Quarantines) != wantQ {
				t.Errorf("Get quarantines = %d, want %d", st.Quarantines, wantQ)
			}
			if _, q, _ := entries(t, dir); q != wantQ {
				t.Errorf("quarantine files after Get = %d, want %d", q, wantQ)
			}

			// Offline audit: Verify counts, Scrub quarantines, a second
			// Verify reports clean.
			dir = t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, tc.file), tc.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			wantOK, wantBad := 0, 0
			if tc.corrupt {
				wantBad = 1
			} else if isEntry {
				wantOK = 1
			}
			ok, bad, err := blobstore.Verify(nil, dir)
			if err != nil || ok != wantOK || bad != wantBad {
				t.Fatalf("Verify = (%d, %d, %v), want (%d, %d, nil)", ok, bad, err, wantOK, wantBad)
			}
			ok, q, err := blobstore.Scrub(nil, dir)
			if err != nil || ok != wantOK || q != wantBad {
				t.Fatalf("Scrub = (%d, %d, %v), want (%d, %d, nil)", ok, q, err, wantOK, wantBad)
			}
			ok, bad, err = blobstore.Verify(nil, dir)
			if err != nil || ok != wantOK || bad != 0 {
				t.Fatalf("Verify after Scrub = (%d, %d, %v), want (%d, 0, nil)", ok, bad, err, wantOK)
			}
			if _, q, _ := entries(t, dir); q != wantBad {
				t.Errorf("quarantine files after Scrub = %d, want %d (rename, never delete)", q, wantBad)
			}
		})
	}

	t.Run(ext+"/quarantine rename fails", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, keyA+ext), good[:len(good)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		fsys := faultfs.New(&faultfs.Plan{Seed: 1, RenameOneIn: 1})
		store, err := blobstore.Open(dir, fsys)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Get(keyA); !errors.Is(err, blobstore.ErrCorrupt) {
			t.Fatalf("Get error %v, want ErrCorrupt", err)
		}
		if q := store.Stats().Quarantines; q != 0 {
			t.Errorf("Quarantines = %d after a failed rename, want 0", q)
		}
		if _, q, err := blobstore.Scrub(fsys, dir); !faultfs.IsInjected(err) || q != 0 {
			t.Errorf("Scrub = (%d quarantined, %v), want (0, injected rename fault)", q, err)
		}
		if live, q, _ := entries(t, dir); live != 1 || q != 0 {
			t.Errorf("after failed quarantines: %d live, %d quarantined, want 1 and 0", live, q)
		}
		if _, bad, err := blobstore.Verify(nil, dir); err != nil || bad != 1 {
			t.Errorf("Verify = (%d corrupt, %v), want the entry still flagged", bad, err)
		}
	})
}

// TestPutGetRoundTrip: Put writes the literal framed format through a
// temp file that never outlives the call, and Get serves it back.
func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := blobstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(keyA, body); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, keyA+blobstore.Ext))
	if err != nil || !bytes.Equal(raw, framed(body)) {
		t.Fatalf("on-disk entry %q (%v), want %q", raw, err, framed(body))
	}
	if got, err := store.Get(keyA); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("Get = (%q, %v), want %q", got, err, body)
	}
	if _, err := store.Get(keyB); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Get of an absent key: %v, want not-exist", err)
	}
	want := blobstore.Stats{Hits: 1, Misses: 1, Writes: 1}
	if st := store.Stats(); st != want {
		t.Errorf("Stats = %+v, want %+v", st, want)
	}
	if live, q, tmp := entries(t, dir); live != 1 || q != 0 || tmp != 0 {
		t.Errorf("dir holds %d live, %d quarantined, %d temp, want 1, 0, 0", live, q, tmp)
	}
}

// openStore opens a result-extension store over a fresh directory.
func openStore(t *testing.T, fsys blobstore.FS) (*blobstore.Store, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := blobstore.Open(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	return store, dir
}

// TestQuarantinePreservesAndHeals proves the crash-recovery loop: a
// corrupt entry is moved aside (never deleted) with its bytes intact,
// the address then reads as absent, and the next Put heals it.
func TestQuarantinePreservesAndHeals(t *testing.T) {
	store, dir := openStore(t, nil)
	if err := store.Put(keyA, body); err != nil {
		t.Fatal(err)
	}
	// Tear the live entry, as a crashed writer without the temp+rename
	// discipline would.
	path := filepath.Join(dir, keyA+blobstore.Ext)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := raw[:len(raw)/3]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := store.Get(keyA); !errors.Is(err, blobstore.ErrCorrupt) {
		t.Fatalf("Get of a torn entry: %v, want ErrCorrupt", err)
	}
	if q := store.Stats().Quarantines; q != 1 {
		t.Errorf("Quarantines = %d, want 1", q)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 || !strings.Contains(ents[0].Name(), ".quarantined-") {
		t.Fatalf("want exactly one quarantined file, got %v (%v)", ents, err)
	}
	if qraw, err := os.ReadFile(filepath.Join(dir, ents[0].Name())); err != nil || !bytes.Equal(qraw, torn) {
		t.Errorf("quarantine did not preserve the corrupt bytes (%d bytes, err %v)", len(qraw), err)
	}

	if _, err := store.Get(keyA); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("post-quarantine Get: %v, want a plain miss", err)
	}
	if err := store.Put(keyA, body); err != nil {
		t.Fatal(err)
	}
	if got, err := store.Get(keyA); err != nil || !bytes.Equal(got, body) {
		t.Errorf("healed entry: (%q, %v), want the body", got, err)
	}
}

// TestTornPutInjection drives Put through the deterministic disk-fault
// injector: a torn temp write reports success, the rename lands the
// truncation, and the next Get quarantines it instead of serving it.
func TestTornPutInjection(t *testing.T) {
	plan := &faultfs.Plan{Seed: 7, TornWriteOneIn: 1}
	store, dir := openStore(t, faultfs.New(plan))
	if err := store.Put(keyA, body); err != nil {
		t.Fatalf("torn write must look like success to the writer, got %v", err)
	}
	if torn, _, _, _ := plan.Stats(); torn != 1 {
		t.Fatalf("injector tore %d writes, want 1", torn)
	}
	if _, err := store.Get(keyA); !errors.Is(err, blobstore.ErrCorrupt) {
		t.Fatalf("Get of a torn entry: %v, want ErrCorrupt", err)
	}
	if _, q, _ := entries(t, dir); q != 1 || store.Stats().Quarantines != 1 {
		t.Errorf("%d quarantined files, Quarantines = %d, want 1 and 1", q, store.Stats().Quarantines)
	}
}

// TestPutRenameFault: a failed rename surfaces as a Put error, removes
// its temp file and never touches the live entry.
func TestPutRenameFault(t *testing.T) {
	good, dir := openStore(t, nil)
	if err := good.Put(keyA, body); err != nil {
		t.Fatal(err)
	}
	store, err := blobstore.Open(dir, faultfs.New(&faultfs.Plan{Seed: 3, RenameOneIn: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(keyA, []byte("replacement")); !faultfs.IsInjected(err) {
		t.Fatalf("Put error %v, want the injected rename fault", err)
	}
	if got, err := store.Get(keyA); err != nil || !bytes.Equal(got, body) {
		t.Errorf("failed Put damaged the live entry: (%q, %v)", got, err)
	}
	if live, q, tmp := entries(t, dir); live != 1 || q != 0 || tmp != 0 {
		t.Errorf("dir holds %d live, %d quarantined, %d temp, want 1, 0, 0", live, q, tmp)
	}
}

// TestBitFlipInjection: one flipped bit anywhere in a written entry —
// frame prefix, hash, separator or body — fails the frame. Every seed
// must read as ErrCorrupt with the entry quarantined; none may serve
// damaged bytes.
func TestBitFlipInjection(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		plan := &faultfs.Plan{Seed: seed, BitFlipOneIn: 1}
		store, dir := openStore(t, faultfs.New(plan))
		if err := store.Put(keyA, body); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, flipped, _, _ := plan.Stats(); flipped != 1 {
			t.Fatalf("seed %d: injector flipped %d writes, want 1", seed, flipped)
		}
		if got, err := store.Get(keyA); !errors.Is(err, blobstore.ErrCorrupt) {
			t.Errorf("seed %d: Get = (%q, %v), want ErrCorrupt", seed, got, err)
		}
		if _, q, _ := entries(t, dir); q != 1 || store.Stats().Quarantines != 1 {
			t.Errorf("seed %d: %d quarantined files, Quarantines = %d, want 1 and 1",
				seed, q, store.Stats().Quarantines)
		}
	}
}

// TestTempResidueIgnored: a crashed writer's ".tmp-" residue is never
// read by Get, never shadows a Put and is never quarantined.
func TestTempResidueIgnored(t *testing.T) {
	store, dir := openStore(t, nil)
	if err := os.WriteFile(filepath.Join(dir, keyA+".tmp-999-1"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get(keyA); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp residue visible to Get: %v", err)
	}
	if err := store.Put(keyA, body); err != nil {
		t.Fatal(err)
	}
	if got, err := store.Get(keyA); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("Put around residue: (%q, %v), want the body", got, err)
	}
	if q := store.Stats().Quarantines; q != 0 {
		t.Errorf("Quarantines = %d, want 0: residue is ignored, not corrupt", q)
	}
}

// TestConcurrentPutGet hammers one key with concurrent Put and Get: the
// temp-file+rename write means a Get sees no entry (before the first
// rename lands) or one writer's complete body — never a truncated or
// mixed one. Run under -race, it pins the store's lock-free visibility
// contract.
func TestConcurrentPutGet(t *testing.T) {
	store, _ := openStore(t, nil)
	const writers, readers, rounds = 4, 4, 50
	bodies := make(map[string]bool, writers)
	for w := 0; w < writers; w++ {
		bodies[fmt.Sprintf("%swriter %d\n", body, w)] = true
	}
	var wg sync.WaitGroup
	for b := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := store.Put(keyA, []byte(b)); err != nil {
					t.Errorf("concurrent Put: %v", err)
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
				got, err := store.Get(keyA)
				if err != nil && !errors.Is(err, os.ErrNotExist) {
					t.Errorf("concurrent Get saw a partial write: %v", err)
					return
				}
				if err == nil && !bodies[string(got)] {
					t.Errorf("concurrent Get returned a mangled body %q", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, err := store.Get(keyA); err != nil || !bodies[string(got)] {
		t.Errorf("final Get = (%q, %v), want one writer's body", got, err)
	}
	if q := store.Stats().Quarantines; q != 0 {
		t.Errorf("Quarantines = %d, want 0", q)
	}
}
