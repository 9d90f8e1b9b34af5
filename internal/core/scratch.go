package core

import (
	"sync"
	"unsafe"

	"repro/internal/dft"
	"repro/internal/xmath"
)

// runScratch is the buffers one run reuses from frame to frame and
// hands on to a later run: a generator's point values, transform
// outputs, negated points, transform workspace, eq. (17) deflation
// buffers and unit-circle point sets, and a joint cache's entries and
// chunk workers. Only buffers live here. Everything a Result keeps —
// normalized coefficients, subtracted masks, iterations — is allocated
// afresh, so a scratch returned to the stack shares nothing with the
// results of the run that used it.
type runScratch struct {
	vals   []xmath.XComplex
	raw    []xmath.XComplex
	neg    []complex128
	dfts   dft.Scratch
	defl   deflation
	points map[int][]complex128 // unit-circle point sets by K, read-only
	joint  jointScratch
	size   int // bytes, as of the last putRunScratch
}

// jointScratch is a joint cache's reusable state: its entry map, the
// entries themselves in fixed blocks (an entry's address must not move
// while chunks hold it), and the chunk workers of its batches.
type jointScratch struct {
	entries  map[jointKey]*jointEntry
	blocks   []*[entryBlock]jointEntry
	used     int          // entries handed out since the last reset
	mapLen   int          // the most entries the map has held
	idle     *jointWorker // idle chunk workers, linked through next
	nworkers int          // chunk workers allocated
}

// entryBlock is the number of entries allocated at once; a warm ladder40
// sweep point uses 34.
const entryBlock = 64

// entry returns a zeroed entry. The caller holds the cache's mutex.
func (js *jointScratch) entry() *jointEntry {
	b, i := js.used/entryBlock, js.used%entryBlock
	if b == len(js.blocks) {
		js.blocks = append(js.blocks, new([entryBlock]jointEntry))
	}
	js.used++
	return &js.blocks[b][i]
}

// worker takes an idle chunk worker, or allocates one, and pushes it
// on *taken. The caller holds the cache's mutex.
func (js *jointScratch) worker(taken **jointWorker) *jointWorker {
	w := js.idle
	if w != nil {
		js.idle = w.next
	} else {
		w = new(jointWorker)
		js.nworkers++
	}
	w.next, *taken = *taken, w
	return w
}

// release makes the workers of the list taken idle again. The caller
// holds the cache's mutex.
func (js *jointScratch) release(taken *jointWorker) {
	for taken != nil {
		w := taken
		taken, w.next = w.next, js.idle
		js.idle = w
	}
}

// reset empties the entry map and zeroes the used entries, so their
// latches can fire again.
func (js *jointScratch) reset() {
	js.mapLen = max(js.mapLen, len(js.entries))
	clear(js.entries)
	for b := 0; b*entryBlock < js.used; b++ {
		clear(js.blocks[b][:])
	}
	js.used = 0
	for w := js.idle; w != nil; w = w.next {
		clear(w.entries[:])
	}
}

// The stack's bounds: at most maxRunScratches scratches holding at most
// maxRunScratchBytes of buffers in all; a scratch that does not fit is
// left to the garbage collector. Each generation holds one scratch per
// pass and one for its joint cache, so the count covers many concurrent
// generations; the bytes keep a scratch grown by one huge circuit from
// being held for good.
const (
	maxRunScratches    = 64
	maxRunScratchBytes = 4 << 20
)

// runScratches is the process-wide stack of idle run scratches: a
// mutex-guarded stack rather than a sync.Pool, as sparse.GetScratch
// explains, so the steady state's allocations do not depend on when the
// garbage collector runs.
var runScratches = struct {
	sync.Mutex
	free  []*runScratch
	bytes int
}{free: make([]*runScratch, 0, maxRunScratches)}

// getRunScratch pops the most recently returned scratch, or makes an
// empty one when the stack is empty.
func getRunScratch() *runScratch {
	runScratches.Lock()
	defer runScratches.Unlock()
	n := len(runScratches.free)
	if n == 0 {
		return &runScratch{points: make(map[int][]complex128)}
	}
	sc := runScratches.free[n-1]
	runScratches.free[n-1] = nil
	runScratches.free = runScratches.free[:n-1]
	runScratches.bytes -= sc.size
	return sc
}

// putRunScratch drops sc's references into the run that used it and
// returns it to the stack, or leaves it to the garbage collector when
// the stack is at its bounds. sc must not be used afterwards.
func putRunScratch(sc *runScratch) {
	sc.defl = deflation{scaled: sc.defl.scaled, slotErr: sc.defl.slotErr}
	sc.joint.reset()
	sc.size = sc.bytes()
	runScratches.Lock()
	if len(runScratches.free) < maxRunScratches && runScratches.bytes+sc.size <= maxRunScratchBytes {
		runScratches.free = append(runScratches.free, sc)
		runScratches.bytes += sc.size
	}
	runScratches.Unlock()
}

// bytes returns the size of the scratch's buffers, the map tables
// estimated from their entries.
func (sc *runScratch) bytes() int {
	n := bufBytes(sc.vals) + bufBytes(sc.raw) + bufBytes(sc.neg) + sc.dfts.Bytes() +
		bufBytes(sc.defl.scaled) + bufBytes(sc.defl.slotErr)
	for k, pts := range sc.points {
		n += bufBytes(pts) + int(unsafe.Sizeof(k)+unsafe.Sizeof(pts))
	}
	js := &sc.joint
	n += js.mapLen*int(unsafe.Sizeof(jointKey{})+unsafe.Sizeof(&jointEntry{})) +
		len(js.blocks)*int(unsafe.Sizeof([entryBlock]jointEntry{})) +
		js.nworkers*int(unsafe.Sizeof(jointWorker{}))
	return n + int(unsafe.Sizeof(*sc))
}

// bufBytes returns the bytes of s's backing array.
func bufBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}
