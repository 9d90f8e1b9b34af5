// Package blobstore is the crash-safe, content-hash-framed file store
// behind the server's persistent result-cache tier; the chaos harness
// audits it offline with Verify and Scrub.
//
// One entry is one file, <dir>/<key>.result.json (Ext), holding
// "sha256:<lowercase hex>\n" + body. Put writes a temp file and renames
// it over the entry, so a reader sees the old entry or the new one,
// never a truncation. Get verifies the frame; a torn or bit-flipped
// entry is quarantined — renamed aside with a ".quarantined-" suffix,
// never deleted, so the evidence survives — and reads as a miss. Temp
// and quarantine names carry the process id and a sequence number, so
// crashed-writer residue is recognizable and never shadows a live
// entry. All file I/O goes through FS, so internal/faultfs can tear
// writes, flip bits and fail renames on a seeded plan.
package blobstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// FS is the narrow, whole-file filesystem surface the store uses. The
// store's atomicity comes from write-temp-then-rename, not from
// streaming. Production wires OsFS; tests and the chaos harness wire a
// deterministic fault injector (internal/faultfs).
type FS interface {
	// ReadFile reads the named file in full.
	ReadFile(name string) ([]byte, error)
	// WriteFile writes data to the named file, creating or truncating it.
	WriteFile(name string, data []byte, perm fs.FileMode) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// MkdirAll creates the directory and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir lists the named directory.
	ReadDir(name string) ([]os.DirEntry, error)
}

// OsFS is the default FS: the process's real filesystem.
type OsFS struct{}

func (OsFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (OsFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (OsFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OsFS) Remove(name string) error                     { return os.Remove(name) }
func (OsFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (OsFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }

// ErrCorrupt marks an entry whose content-hash frame failed: Get has
// quarantined it (or tried to).
var ErrCorrupt = errors.New("corrupt entry")

// seq numbers temp and quarantine files process-wide, so two stores
// (or two scrubs) over one directory never pick the same name.
var seq atomic.Uint64

// Stats counts a store's traffic since it was opened.
type Stats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Writes      uint64 `json:"writes"`
	Quarantines uint64 `json:"quarantines"`
}

// Ext is the file extension of every entry.
const Ext = ".result.json"

// Store is one directory of framed entries. It is safe for concurrent
// use.
type Store struct {
	dir         string
	fs          FS
	hits        atomic.Uint64
	misses      atomic.Uint64
	writes      atomic.Uint64
	quarantines atomic.Uint64
}

// Open opens (creating if needed) the store of <key>.result.json files
// in dir. A nil fsys selects the real filesystem.
func Open(dir string, fsys FS) (*Store, error) {
	s := newStore(dir, fsys)
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return s, nil
}

func newStore(dir string, fsys FS) *Store {
	if fsys == nil {
		fsys = OsFS{}
	}
	return &Store{dir: dir, fs: fsys}
}

// path maps a key to its file. Keys are content addresses, so every
// rune is path-safe.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+Ext)
}

// frame prefixes body with its content hash.
func frame(body []byte) []byte {
	sum := sha256.Sum256(body)
	out := make([]byte, 0, len(body)+7+hex.EncodedLen(len(sum))+1)
	out = append(out, "sha256:"...)
	out = hex.AppendEncode(out, sum[:])
	out = append(out, '\n')
	return append(out, body...)
}

// unframe verifies the frame and returns the body. The hash must be
// spelled exactly as frame spells it (lowercase hex), so a flipped case
// bit in the hash is a defect too.
func unframe(raw []byte) ([]byte, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 || !bytes.HasPrefix(raw, []byte("sha256:")) {
		return nil, fmt.Errorf("%w: missing content-hash frame", ErrCorrupt)
	}
	body := raw[nl+1:]
	sum := sha256.Sum256(body)
	if string(raw[7:nl]) != hex.EncodeToString(sum[:]) {
		return nil, fmt.Errorf("%w: content hash mismatch", ErrCorrupt)
	}
	return body, nil
}

// Get returns the verified body stored under key. A missing or
// unreadable file returns the filesystem's error; a failed frame
// quarantines the entry and returns an error wrapping ErrCorrupt. Both
// count as misses.
func (s *Store) Get(key string) ([]byte, error) {
	raw, err := s.fs.ReadFile(s.path(key))
	if err == nil {
		var body []byte
		if body, err = unframe(raw); err == nil {
			s.hits.Add(1)
			return body, nil
		}
		s.quarantine(key)
	}
	s.misses.Add(1)
	return nil, err
}

// Put frames body and stores it under key: temp file, then rename over
// the entry. On failure the live entry is untouched and the temp file
// is removed where possible.
func (s *Store) Put(key string, body []byte) error {
	tmp := filepath.Join(s.dir, fmt.Sprintf("%s.tmp-%d-%d", key, os.Getpid(), seq.Add(1)))
	if err := s.fs.WriteFile(tmp, frame(body), 0o644); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, s.path(key)); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	s.writes.Add(1)
	return nil
}

// quarantine renames the entry under key aside — never deletes it — so
// the address reads as absent while the bytes survive for diagnosis.
// Get and Scrub call it on a frame defect. A failed rename leaves the
// entry live and the counter unchanged.
func (s *Store) quarantine(key string) error {
	p := s.path(key)
	if err := s.fs.Rename(p, fmt.Sprintf("%s.quarantined-%d-%d", p, os.Getpid(), seq.Add(1))); err != nil {
		return err
	}
	s.quarantines.Add(1)
	return nil
}

// Stats returns the store's counters; a nil store reports zeros.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		Quarantines: s.quarantines.Load(),
	}
}

// Verify audits dir offline: every live <key>.result.json entry must
// pass its frame. Temp residue and quarantined files are skipped — they
// are already out of the serving path. A nil fsys selects the real
// filesystem.
func Verify(fsys FS, dir string) (ok, corrupt int, err error) {
	return walk(newStore(dir, fsys), false)
}

// Scrub is Verify that also quarantines every corrupt entry, through
// the same quarantine the serving path uses. It stops at the first
// entry it cannot read or rename, leaving that entry live.
func Scrub(fsys FS, dir string) (ok, quarantined int, err error) {
	return walk(newStore(dir, fsys), true)
}

func walk(s *Store, fix bool) (ok, bad int, err error) {
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		key, live := strings.CutSuffix(e.Name(), Ext)
		if e.IsDir() || !live {
			continue
		}
		raw, err := s.fs.ReadFile(s.path(key))
		if err != nil {
			return ok, bad, err
		}
		if _, defect := unframe(raw); defect == nil {
			ok++
			continue
		}
		if fix {
			if err := s.quarantine(key); err != nil {
				return ok, bad, err
			}
		}
		bad++
	}
	return ok, bad, nil
}
