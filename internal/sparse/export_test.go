package sparse

// Test hooks into the process-wide scratch stack, for the external
// tests in scratch_test.go.

const (
	MaxScratches    = maxScratches
	MaxScratchBytes = maxScratchBytes
)

// DrainScratch empties the stack, so that the next evaluation starts
// from fresh buffers.
func DrainScratch() {
	scratches.Lock()
	clear(scratches.free)
	scratches.free, scratches.bytes = scratches.free[:0], 0
	scratches.Unlock()
}

// ScratchStack returns how many scratches the stack holds and the bytes
// it accounts for them.
func ScratchStack() (n, bytes int) {
	scratches.Lock()
	defer scratches.Unlock()
	return len(scratches.free), scratches.bytes
}
