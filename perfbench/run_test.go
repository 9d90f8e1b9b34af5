package main

import (
	"path/filepath"
	"testing"
	"time"
)

// TestTracedRuns drives the traced mode end to end on short windows: the
// untraced and traced halves must agree on every deterministic count and
// every output check must pass. Under -race it also covers the timing
// wrapper's clock, which parallel evaluation workers and both serve-mixed
// clients reach at once.
func TestTracedRuns(t *testing.T) {
	for name, positive := range map[string][]string{
		"ua741-cold":  {"nodal.busy_ms_per_op", "core.frames_per_op", "engine.encode_ms"},
		"serve-mixed": {"netlist.parse_us", "engine.key_us", "server.cache_hit_ratio"},
	} {
		t.Run(name, func(t *testing.T) {
			out, err := traced(workloads[name](1), 400*time.Millisecond, filepath.Join(t.TempDir(), "spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", out.attempted, out.failed, out.notes)
			}
			for _, m := range positive {
				if out.metrics[m] <= 0 {
					t.Errorf("%s = %v, want > 0", m, out.metrics[m])
				}
			}
		})
	}
}
