package blobstore_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/faultfs"
	"repro/pkg/engine"
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

// envelope is a minimal schedule envelope recorded under key.
func envelope(t *testing.T, key string) []byte {
	t.Helper()
	raw, err := engine.EncodeWarmStartJSON(key, &engine.WarmStart{Num: &engine.Schedule{
		Name: "numerator", M: 1, OrderBound: 1, SigDigits: 6,
		SeedFScale: 1, SeedGScale: 1,
		Frames: []engine.ScheduleFrame{{FScale: 1, GScale: 1, Purpose: "initial"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// scheduleCheck is the schedule store's audit check: the envelope must
// decode and name the key its file is stored under.
func scheduleCheck(key string, body []byte) error {
	w, _, err := engine.DecodeWarmStartJSON(body)
	if err == nil && w.Key != key {
		err = fmt.Errorf("envelope recorded for key %s", w.Key)
	}
	return err
}

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
// path (Get) and the offline audit (Verify, Scrub, Verify), for both
// stores the repo keeps: the result cache and the schedule store.
func TestStore(t *testing.T) {
	body := envelope(t, keyA)
	good := framed(body)
	flipped := bytes.Clone(good)
	flipped[len(flipped)-len(body)/2] ^= 0x04
	// The same hash in uppercase hex: hex decoding would accept it, the
	// frame's exact spelling must not.
	upper := append([]byte("sha256:"+strings.ToUpper(fmt.Sprintf("%x", sha256.Sum256(body)))+"\n"), body...)

	for _, ext := range []string{".result.json", ".schedule.json"} {
		var check func(string, []byte) error
		if ext == ".schedule.json" {
			check = scheduleCheck
		}
		for _, tc := range []struct {
			name, file string
			raw        []byte
			// frameOK: Get serves the body. corrupt: the audit (frame
			// plus check) flags it. A row with neither is not an entry.
			frameOK, corrupt bool
		}{
			{"valid", keyA + ext, good, true, false},
			{"torn", keyA + ext, good[:len(good)/2], false, true},
			{"bit flip", keyA + ext, flipped, false, true},
			{"unframed legacy", keyA + ext, body, false, true},
			{"empty", keyA + ext, nil, false, true},
			{"uppercase hash", keyA + ext, upper, false, true},
			{"tmp residue", keyA + ".tmp-999-1", good[:10], false, false},
			{"key mismatch", keyB + ext, good, true, check != nil},
		} {
			t.Run(ext+"/"+tc.name, func(t *testing.T) {
				key, _ := strings.CutSuffix(tc.file, ext)
				isEntry := tc.frameOK || tc.corrupt

				// Serving path: frame defects are quarantined on read.
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, tc.file), tc.raw, 0o644); err != nil {
					t.Fatal(err)
				}
				store, err := blobstore.Open(dir, ext, nil)
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

				// Offline audit: Verify counts, Scrub quarantines, a
				// second Verify reports clean.
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
				ok, bad, err := blobstore.Verify(nil, dir, ext, check)
				if err != nil || ok != wantOK || bad != wantBad {
					t.Fatalf("Verify = (%d, %d, %v), want (%d, %d, nil)", ok, bad, err, wantOK, wantBad)
				}
				ok, q, err := blobstore.Scrub(nil, dir, ext, check)
				if err != nil || ok != wantOK || q != wantBad {
					t.Fatalf("Scrub = (%d, %d, %v), want (%d, %d, nil)", ok, q, err, wantOK, wantBad)
				}
				ok, bad, err = blobstore.Verify(nil, dir, ext, check)
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
			store, err := blobstore.Open(dir, ext, fsys)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.Get(keyA); !errors.Is(err, blobstore.ErrCorrupt) {
				t.Fatalf("Get error %v, want ErrCorrupt", err)
			}
			if err := store.Quarantine(keyA); !faultfs.IsInjected(err) {
				t.Errorf("Quarantine error %v, want the injected rename fault", err)
			}
			if q := store.Stats().Quarantines; q != 0 {
				t.Errorf("Quarantines = %d after failed renames, want 0", q)
			}
			if _, q, err := blobstore.Scrub(fsys, dir, ext, check); !faultfs.IsInjected(err) || q != 0 {
				t.Errorf("Scrub = (%d quarantined, %v), want (0, injected rename fault)", q, err)
			}
			if live, q, _ := entries(t, dir); live != 1 || q != 0 {
				t.Errorf("after failed quarantines: %d live, %d quarantined, want 1 and 0", live, q)
			}
			if _, bad, err := blobstore.Verify(nil, dir, ext, check); err != nil || bad != 1 {
				t.Errorf("Verify = (%d corrupt, %v), want the entry still flagged", bad, err)
			}
		})
	}
}

// TestPutGetRoundTrip: Put writes the literal framed format through a
// temp file that never outlives the call, and Get serves it back.
func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := blobstore.Open(dir, ".result.json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"tier":"exact"}`)
	if err := store.Put(keyA, body); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, keyA+".result.json"))
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
