package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xmath"
	"repro/pkg/engine"
)

// span is one timed interval at a layer boundary. Spans of one op share
// op; parent is the index of the enclosing span (-1 for an op's root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; write dumps them when the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index for use as a parent.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	i := t.open(name, op, parent, start)
	t.close(i, end)
	return i
}

// open records a span whose end is not known yet, so that its children
// can name it as their parent; close sets the end.
func (t *tracer) open(name string, op, parent int, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start.Sub(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) close(i int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = end.Sub(t.epoch).Nanoseconds()
}

// selfTimes sums, per span name, each span's duration minus the
// durations of its direct children.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// write dumps the spans as JSON under path, creating its directory.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// evalClock accumulates the evaluator timing of every formulation the
// timing wrapper produced: the wall time during which at least one
// evaluation was running (busy), the summed per-call time, and the call
// count.
type evalClock struct {
	mu     sync.Mutex
	active int
	since  time.Time
	busy   time.Duration
	sum    time.Duration
	calls  int64
}

func (c *evalClock) enter() time.Time {
	now := time.Now()
	c.mu.Lock()
	if c.active == 0 {
		c.since = now
	}
	c.active++
	c.mu.Unlock()
	return now
}

func (c *evalClock) exit(start time.Time, points int) time.Time {
	now := time.Now()
	c.mu.Lock()
	c.active--
	c.sum += now.Sub(start)
	c.calls += int64(points)
	if c.active == 0 {
		c.busy += now.Sub(c.since)
	}
	c.mu.Unlock()
	return now
}

// read returns the accumulated busy time, summed call time and calls.
func (c *evalClock) read() (busy, sum time.Duration, calls int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.busy, c.sum, c.calls
}

// probe is the observation point the benchmark's backend wrappers report
// to: point-boundary marks (every Formulate/FormulateShared call), the
// evaluator clock, and per-generation engine time (from a formulation's
// start to its last evaluation).
type probe struct {
	mark      func(start time.Time) // nil: boundaries are not observed
	clock     evalClock
	engineNs  atomic.Int64
	formulate func(start, end time.Time) // nil: formulate spans are not recorded
}

// active is the probe the registered wrappers report to. The wrapper
// registry takes factories without arguments, hence a package variable.
// Workloads set it during set-up, while no generation runs; a wrapper
// reads it when the engine resolves a backend name (once per generation
// or sweep).
var active atomic.Pointer[probe]

func init() {
	engine.RegisterWrapper("perfbench-mark", func(b engine.Backend) engine.Backend {
		return &probedBackend{inner: b, p: active.Load()}
	})
	engine.RegisterWrapper("perfbench-time", func(b engine.Backend) engine.Backend {
		return &probedBackend{inner: b, p: active.Load(), timed: true}
	})
}

// probedBackend forwards every capability of the wrapped backend —
// Formulate, FormulateShared (plan sharing), and, on the timed variant,
// the evaluators Eval/EvalBatch/EvalBoth with BothReady untouched — so
// that generation takes exactly the path it takes unwrapped. The mark
// variant only timestamps formulation calls; the timed variant also
// times every evaluator call.
type probedBackend struct {
	inner engine.Backend
	p     *probe
	timed bool
}

func (b *probedBackend) Name() string { return b.inner.Name() }

func (b *probedBackend) Formulate(c *engine.Circuit, spec engine.Spec) (*engine.Formulation, error) {
	start := b.begin()
	f, err := b.inner.Formulate(c, spec)
	return b.finish(start, f, err)
}

func (b *probedBackend) FormulateShared(c *engine.Circuit, spec engine.Spec, prior *engine.Formulation) (*engine.Formulation, error) {
	sf, ok := b.inner.(engine.SharedFormulator)
	if !ok {
		return b.Formulate(c, spec)
	}
	start := b.begin()
	f, err := sf.FormulateShared(c, spec, prior)
	return b.finish(start, f, err)
}

func (b *probedBackend) begin() time.Time {
	now := time.Now()
	if b.p != nil && b.p.mark != nil {
		b.p.mark(now)
	}
	return now
}

func (b *probedBackend) finish(start time.Time, f *engine.Formulation, err error) (*engine.Formulation, error) {
	if b.p == nil || !b.timed || err != nil {
		return f, err
	}
	if b.p.formulate != nil {
		b.p.formulate(start, time.Now())
	}
	return timeFormulation(f, b.p, start), nil
}

// timeFormulation returns a copy of f whose evaluators report to p. The
// copy keeps Share (plan adoption), BothReady (the priming gate of the
// parallel joint path) and every other field as they are.
func timeFormulation(f *engine.Formulation, p *probe, start time.Time) *engine.Formulation {
	out := *f
	tf := *f.TF
	var last atomic.Int64 // this generation's latest evaluation end
	last.Store(start.UnixNano())
	done := func(end time.Time) {
		// Move this generation's engine span end forward to the latest
		// evaluation: engineNs accumulates (last end − formulate start).
		for {
			prev := last.Load()
			e := end.UnixNano()
			if e <= prev {
				return
			}
			if last.CompareAndSwap(prev, e) {
				p.engineNs.Add(e - prev)
				return
			}
		}
	}
	timeEvaluator := func(ev engine.Evaluator) engine.Evaluator {
		eval, batch := ev.Eval, ev.EvalBatch
		ev.Eval = func(s complex128, fs, gs float64) xmath.XComplex {
			t := p.clock.enter()
			v := eval(s, fs, gs)
			done(p.clock.exit(t, 1))
			return v
		}
		if batch != nil {
			ev.EvalBatch = func(ctx context.Context, pts []complex128, fs, gs float64, workers int) []xmath.XComplex {
				t := p.clock.enter()
				v := batch(ctx, pts, fs, gs, workers)
				done(p.clock.exit(t, len(pts)))
				return v
			}
		}
		return ev
	}
	tf.Num = timeEvaluator(tf.Num)
	tf.Den = timeEvaluator(tf.Den)
	if both := tf.EvalBoth; both != nil {
		tf.EvalBoth = func(s complex128, fs, gs float64) (num, den xmath.XComplex) {
			t := p.clock.enter()
			num, den = both(s, fs, gs)
			done(p.clock.exit(t, 1))
			return num, den
		}
	}
	out.TF = &tf
	return &out
}
