package sparse

import (
	"sync"
	"unsafe"
)

// Scratch is one evaluator's reusable buffers: a factorization
// workspace and the right-hand side and solution vectors of solves.
// Evaluators take scratches from one process-wide stack (GetScratch) and
// return them when done (PutScratch), so a new system's evaluations —
// its priming factorizations, its lane workers, its solves — start from
// buffers that earlier systems grew, whatever their patterns.
//
// Only buffers outlive a use. PutScratch drops the scratch's references
// to the plan, the compiled pattern and the assembly positions it last
// worked with, and every later use sizes and overwrites a buffer before
// reading it, so a result never depends on what a scratch held before.
type Scratch struct {
	WS       Workspace
	rhs, sol []complex128
	size     int // retained bytes while on the stack
}

// Vectors returns the scratch's right-hand side of length n, cleared,
// and room for the solutions at k points, k·n entries (see Solves).
func (sc *Scratch) Vectors(n, k int) (rhs, sol []complex128) {
	sc.rhs, sc.sol = resize(sc.rhs, n), resize(sc.sol, k*n)
	clear(sc.rhs)
	return sc.rhs, sc.sol
}

// The stack's bounds: at most maxScratches scratches holding at most
// maxScratchBytes of buffers in all. A scratch that does not fit is left
// to the garbage collector. The count covers the workers of many
// concurrent generations (two overlapped passes of GOMAXPROCS workers
// each); the bytes keep a scratch grown by one huge pattern from being
// held for good.
const (
	maxScratches    = 64
	maxScratchBytes = 16 << 20
)

// scratches is the process-wide stack of idle scratches. It is a
// mutex-guarded stack rather than a sync.Pool on purpose: a sync.Pool
// may be emptied by any GC cycle, which would make the steady state's
// allocation count nondeterministic, while the stack guarantees zero
// allocations once one scratch per concurrent evaluator exists.
var scratches = struct {
	sync.Mutex
	free  []*Scratch
	bytes int
}{free: make([]*Scratch, 0, maxScratches)}

// GetScratch pops the most recently returned scratch, or makes an empty
// one when the stack is empty.
func GetScratch() *Scratch {
	scratches.Lock()
	if n := len(scratches.free); n > 0 {
		sc := scratches.free[n-1]
		scratches.free[n-1] = nil
		scratches.free = scratches.free[:n-1]
		scratches.bytes -= sc.size
		scratches.Unlock()
		return sc
	}
	scratches.Unlock()
	return new(Scratch)
}

// PutScratch returns sc to the stack, or drops it when the stack is at
// its bounds. sc must not be used afterwards.
func PutScratch(sc *Scratch) {
	sc.WS.release()
	sc.size = sc.bytes()
	scratches.Lock()
	if len(scratches.free) < maxScratches && scratches.bytes+sc.size <= maxScratchBytes {
		scratches.free = append(scratches.free, sc)
		scratches.bytes += sc.size
	}
	scratches.Unlock()
}

// Lease gathers the scratches one batch's workers take from the stack,
// so that they go back together once the batch has drained. Get is safe
// for concurrent use.
type Lease struct {
	mu  sync.Mutex
	scs []*Scratch
}

// Get takes a scratch from the stack under the lease.
func (l *Lease) Get() *Scratch {
	sc := GetScratch()
	l.mu.Lock()
	l.scs = append(l.scs, sc)
	l.mu.Unlock()
	return sc
}

// Release returns every scratch the lease took. None may be in use.
func (l *Lease) Release() {
	for _, sc := range l.scs {
		PutScratch(sc)
	}
	l.scs = nil
}

// release drops the workspace's references to what it last factored:
// the plan, its compiled pattern and pivot order, and the assembly's
// positions.
func (ws *Workspace) release() {
	ws.plan, ws.c, ws.pos = nil, nil, nil
	ws.lu.pivRow, ws.lu.pivCol = nil, nil
}

// bytes returns the size of the scratch's buffers.
func (sc *Scratch) bytes() int {
	ws := &sc.WS
	r := &ws.rows
	n := bufBytes(sc.rhs) + bufBytes(sc.sol) + bufBytes(ws.vals) +
		bufBytes(r.items) + bufBytes(r.meta) + bufBytes(r.order) +
		bufBytes(r.cols.items) + bufBytes(r.cols.meta) + bufBytes(r.cols.order) +
		bufBytes(r.byCount.mem) + bufBytes(r.colMax) + bufBytes(r.targets) + bufBytes(r.at) + bufBytes(r.seen) +
		bufBytes(ws.lu.pivVal) + bufBytes(ws.lu.urows) + bufBytes(ws.lu.mults) +
		bufBytes(ws.piv) + bufBytes(ws.ubuf) + bufBytes(ws.mbuf) + bufBytes(ws.fwd)
	return n + int(unsafe.Sizeof(*sc))
}

// bufBytes returns the bytes of s's backing array.
func bufBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}
