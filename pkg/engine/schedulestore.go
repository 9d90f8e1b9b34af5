package engine

import (
	"errors"
	"fmt"

	"repro/internal/blobstore"
)

// FS is the whole-file filesystem surface under the disk-backed stores
// (ScheduleStore here, the server's persistent result cache
// downstream). Nil selects the real filesystem; tests and the chaos
// harness pass internal/faultfs, which tears writes, flips bits and
// fails renames or reads on a seeded plan.
type FS = blobstore.FS

// ScheduleStore is a content-addressed on-disk store of converged scale
// schedules: one file per generation request, named by the request's
// CanonicalKey, holding the versioned schedule envelope (see
// EncodeWarmStartJSON). It closes the warm-start loop across processes:
// a result-cache miss whose request was ever generated before can still
// replay the previously converged schedule instead of rediscovering it
// frame by frame — refgen wires it through -schedule-cache, the server
// through Config.ScheduleDir.
//
// The store is an optimization layer and fails soft by design: Load
// never returns an error. Every defect — missing file, torn or
// bit-flipped bytes, malformed JSON, a version from a different build,
// a key recorded for a different request, degraded provenance — yields
// a nil WarmStart with the refusal reason, and the caller starts cold
// exactly as if the store were empty. A replay is further guarded by
// the generator's own schedule validation (window, precision, drift).
//
// Entries are framed with their SHA-256 (internal/blobstore), so any
// change to the stored bytes is detected before the envelope is
// decoded. Corrupt entries — a failed frame, an envelope that does not
// decode, or one recorded under a different content address — are
// quarantined: renamed aside, never deleted, so the evidence survives
// while the address falls back cold and can be rewritten by the next
// converged generation. An unframed file written by an older build
// reads as corrupt once. Quarantines() counts them.
type ScheduleStore struct {
	blobs *blobstore.Store
}

// OpenScheduleStore opens (creating if needed) a schedule store rooted
// at dir. A nil fsys selects the real filesystem.
func OpenScheduleStore(dir string, fsys FS) (*ScheduleStore, error) {
	if dir == "" {
		return nil, errors.New("engine: schedule store: empty directory")
	}
	blobs, err := blobstore.Open(dir, ".schedule.json", fsys)
	if err != nil {
		return nil, fmt.Errorf("engine: schedule store: %w", err)
	}
	return &ScheduleStore{blobs: blobs}, nil
}

// Dir returns the store's root directory.
func (st *ScheduleStore) Dir() string { return st.blobs.Dir() }

// Quarantines returns the number of corrupt entries this store has
// quarantined since it was opened.
func (st *ScheduleStore) Quarantines() uint64 {
	if st == nil {
		return 0
	}
	return st.blobs.Stats().Quarantines
}

// Load returns the stored warm-start schedules for a content address,
// or nil and the refusal reason. It never returns an error: every
// rejection path is a cold start, not a failure. Corrupt entries are
// quarantined as a side effect; benign refusals — a version from
// another build, degraded provenance — leave the file in place.
func (st *ScheduleStore) Load(key string) (*WarmStart, string) {
	if st == nil {
		return nil, "no schedule store"
	}
	raw, err := st.blobs.Get(key)
	if errors.Is(err, blobstore.ErrCorrupt) {
		return nil, fmt.Sprintf("stored schedule unreadable (quarantined): %v", err)
	}
	if err != nil {
		return nil, "no stored schedule"
	}
	w, ws, err := DecodeWarmStartJSON(raw)
	if err != nil {
		st.blobs.Quarantine(key)
		return nil, fmt.Sprintf("stored schedule unreadable (quarantined): %v", err)
	}
	if w.Version != ScheduleWireVersion {
		return nil, fmt.Sprintf("stored schedule version %d, want %d", w.Version, ScheduleWireVersion)
	}
	if w.Key != key {
		st.blobs.Quarantine(key)
		return nil, "stored schedule recorded for a different request (quarantined)"
	}
	if (ws.Num != nil && ws.Num.Degraded) || (ws.Den != nil && ws.Den.Degraded) {
		return nil, "stored schedule has degraded provenance"
	}
	return ws, ""
}

// Save persists the warm-start schedules of a converged generation
// under its content address, atomically, so a concurrent Load sees
// either the old envelope or the new one. Degraded schedules are
// refused: Load would reject them anyway, and persisting one would
// evict a replayable predecessor.
func (st *ScheduleStore) Save(key string, ws *WarmStart) error {
	if st == nil {
		return errors.New("engine: nil schedule store")
	}
	if ws != nil && ((ws.Num != nil && ws.Num.Degraded) || (ws.Den != nil && ws.Den.Degraded)) {
		return errors.New("engine: refusing to store degraded schedule")
	}
	raw, err := EncodeWarmStartJSON(key, ws)
	if err != nil {
		return err
	}
	if err := st.blobs.Put(key, raw); err != nil {
		return fmt.Errorf("engine: schedule store: %w", err)
	}
	return nil
}
