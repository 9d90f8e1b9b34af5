// Package faultfs is a deterministic disk-fault injector for the
// whole-file filesystem surface the engine's disk stores use
// (engine.FS). It is the storage-layer sibling of internal/fault: a
// seeded Plan decides, per operation, whether to tear a write (persist
// only a prefix), flip one bit of the payload (silent corruption), or
// fail a rename or read outright — the defect classes a crashed process
// or a dirty disk leaves behind. Decisions are a pure function of the
// seed and the operation sequence number, so a failing chaos run replays
// bit for bit from its seed.
package faultfs

import (
	"fmt"
	"io/fs"
	"os"
	"sync/atomic"
)

// Plan configures the injector. The zero value injects nothing.
type Plan struct {
	// Seed perturbs the per-operation fault hash: same rates, different
	// seed, different victim operations.
	Seed int64
	// TornWriteOneIn tears roughly one in this many WriteFile calls:
	// only a hash-chosen prefix of the payload reaches the disk, and the
	// call still reports success — the post-crash torn-page picture. 1
	// tears every write, 0 disables.
	TornWriteOneIn int
	// BitFlipOneIn flips one hash-chosen bit of the payload in roughly
	// one in this many WriteFile calls, reporting success — silent media
	// corruption. 0 disables.
	BitFlipOneIn int
	// RenameOneIn fails roughly one in this many Rename calls with an
	// injected error, leaving both paths untouched. 0 disables.
	RenameOneIn int
	// ReadOneIn fails roughly one in this many ReadFile calls with an
	// injected error. 0 disables.
	ReadOneIn int

	ops       atomic.Uint64 // operation sequence number (decision input)
	torn      atomic.Uint64
	flipped   atomic.Uint64
	renames   atomic.Uint64
	readFails atomic.Uint64
}

// FS wraps the real filesystem with a Plan. It implements engine.FS.
type FS struct {
	plan *Plan
}

// New returns a fault-injecting filesystem driven by plan. The plan is
// retained (it carries the operation counter): share one plan across
// filesystems only to share one fault sequence.
func New(plan *Plan) *FS { return &FS{plan: plan} }

// Stats reports how many faults of each kind the plan has injected.
func (p *Plan) Stats() (torn, flipped, renames, readFails uint64) {
	return p.torn.Load(), p.flipped.Load(), p.renames.Load(), p.readFails.Load()
}

// splitmix64 is the 64-bit finalizer of the SplitMix64 generator — the
// same cheap, well-mixed hash internal/fault uses for point decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll advances the operation counter and returns the operation's hash.
func (p *Plan) roll() uint64 {
	n := p.ops.Add(1)
	return splitmix64(uint64(p.Seed) ^ 0x9e3779b97f4a7c15 ^ n)
}

// errInjected is the typed error injected faults surface as.
type errInjected struct{ op, name string }

func (e *errInjected) Error() string {
	return fmt.Sprintf("faultfs: injected %s fault on %s", e.op, e.name)
}

// IsInjected reports whether err was produced by this injector (as
// opposed to a real filesystem failure leaking through the wrapper).
func IsInjected(err error) bool {
	_, ok := err.(*errInjected)
	return ok
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	h := f.plan.roll()
	if f.plan.ReadOneIn > 0 && h%uint64(f.plan.ReadOneIn) == 0 {
		f.plan.readFails.Add(1)
		return nil, &errInjected{op: "read", name: name}
	}
	return os.ReadFile(name)
}

func (f *FS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	h := f.plan.roll()
	if f.plan.TornWriteOneIn > 0 && h%uint64(f.plan.TornWriteOneIn) == 0 {
		f.plan.torn.Add(1)
		// Persist a strict prefix (possibly empty) and report success:
		// the caller believes the write landed, exactly as a crash
		// between write and flush would leave it.
		cut := 0
		if len(data) > 0 {
			cut = int((h >> 16) % uint64(len(data)))
		}
		return os.WriteFile(name, data[:cut], perm)
	}
	if f.plan.BitFlipOneIn > 0 && (h>>8)%uint64(f.plan.BitFlipOneIn) == 0 && len(data) > 0 {
		f.plan.flipped.Add(1)
		corrupt := make([]byte, len(data))
		copy(corrupt, data)
		bit := (h >> 24) % uint64(len(data)*8)
		corrupt[bit/8] ^= 1 << (bit % 8)
		return os.WriteFile(name, corrupt, perm)
	}
	return os.WriteFile(name, data, perm)
}

func (f *FS) Rename(oldpath, newpath string) error {
	h := f.plan.roll()
	if f.plan.RenameOneIn > 0 && h%uint64(f.plan.RenameOneIn) == 0 {
		f.plan.renames.Add(1)
		return &errInjected{op: "rename", name: oldpath}
	}
	return os.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error { return os.Remove(name) }

func (f *FS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (f *FS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
