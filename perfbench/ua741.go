package main

import (
	"context"
	_ "embed"
	"fmt"
	"os"
	"time"

	"repro/internal/circuits"
	"repro/pkg/engine"
)

// ua741Reference is the committed µA741 reference (diffgain, nodal
// backend, paper defaults) every ua741-cold op is checked against.
// Regenerate it with --write-reference after a change that is meant to
// move the coefficients.
//
//go:embed testdata/ua741_diffgain.json
var ua741Reference []byte

// ua741Spec is the µA741 differential voltage gain.
func ua741Spec() engine.Spec {
	inp, inn, out := circuits.UA741Inputs()
	return engine.Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out}
}

// writeReference generates the µA741 reference and writes its wire form.
func writeReference(path string) error {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		return err
	}
	resp, err := eng.Generate(context.Background(), engine.Request{Circuit: circuits.UA741(), Spec: ua741Spec()})
	if err != nil {
		return err
	}
	raw, err := engine.EncodeResponseJSON(resp)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// ua741Cold is the paper's own case: one caller generates the µA741
// reference from scratch (formulate, generate, encode) op after op. It
// has no server, no cache and no warm start. The op is the same for
// every seed.
type ua741Cold struct {
	eng  *engine.Engine
	ckt  *engine.Circuit
	spec engine.Spec
	ref  *engine.Response
	tr   *tracer
	p    *probe
}

func newUA741Cold(uint64) workload { return &ua741Cold{} }

func (w *ua741Cold) setup(tr *tracer) error {
	cfg := engine.Config{}
	w.tr, w.p = tr, nil
	if tr != nil {
		w.p = &probe{}
		active.Store(w.p)
		cfg.Backend = "perfbench-time:nodal"
	}
	eng, err := engine.New(cfg)
	if err != nil {
		return err
	}
	_, num, den, err := engine.DecodeResponseJSON(ua741Reference)
	if err != nil {
		return fmt.Errorf("decoding the µA741 reference: %w", err)
	}
	w.eng, w.ckt, w.spec = eng, circuits.UA741(), ua741Spec()
	w.ref = &engine.Response{Num: num, Den: den}
	// Warm-up op: the first generation of a process pays one-off costs
	// (heap growth, lazily built tables) that later ops do not.
	if _, err := w.generate(-1); err != nil {
		return err
	}
	if w.p != nil {
		// Count from zero: later lookups resolve the wrapper onto the
		// fresh probe.
		w.p = &probe{}
		active.Store(w.p)
	}
	return nil
}

func (w *ua741Cold) close() {}

// generate runs one op (op < 0: untraced warm-up) and checks its output.
func (w *ua741Cold) generate(op int) (*engine.Response, error) {
	req := engine.Request{Circuit: w.ckt, Spec: w.spec}
	if w.tr == nil || op < 0 {
		resp, err := w.eng.Generate(context.Background(), req)
		if err != nil {
			return nil, err
		}
		if _, err := engine.EncodeResponseJSON(resp); err != nil {
			return nil, err
		}
		return resp, checkReference(resp, w.ref)
	}
	tr := w.tr
	root := tr.open("op", op, -1, time.Now())
	gen := tr.open("engine.generate", op, root, time.Now())
	w.p.formulate = func(s, e time.Time) { tr.add("engine.formulate", op, gen, s, e) }
	req.Observer = frameObserver(tr, w.p, func() (int, int) { return op, gen })
	resp, err := w.eng.Generate(context.Background(), req)
	tr.close(gen, time.Now())
	if err != nil {
		tr.close(root, time.Now())
		return nil, err
	}
	encStart := time.Now()
	_, err = engine.EncodeResponseJSON(resp)
	tr.add("engine.encode", op, root, encStart, time.Now())
	tr.close(root, time.Now())
	if err != nil {
		return nil, err
	}
	return resp, checkReference(resp, w.ref)
}

func (w *ua741Cold) run(stop func(time.Duration, int) bool) (*segment, error) {
	seg := &segment{counts: map[string]int64{}}
	start := time.Now()
	for op := 0; !stop(time.Since(start), op); op++ {
		t0 := time.Now()
		resp, err := w.generate(op)
		lat := time.Since(t0)
		seg.units++
		seg.lat = append(seg.lat, lat)
		seg.misses = append(seg.misses, lat)
		seg.hits = append(seg.hits, lat)
		if err != nil {
			seg.failed++
			seg.notes = append(seg.notes, fmt.Sprintf("op %d: %v", op, err))
		}
		if resp != nil {
			countResponse(resp, seg.counts)
		}
	}
	seg.elapsed = time.Since(start)
	return seg, nil
}

func (w *ua741Cold) verify(*segment) (int, []string) { return 0, nil }

func (w *ua741Cold) layers(seg *segment, tr *tracer) map[string]float64 {
	m := engineLayers(seg, tr, w.p)
	m["core.outside_frames_ms_per_op"] = perOp(msOf(tr.selfTimes()["engine.generate"]), seg)
	return m
}

// frameObserver returns the Observer that turns each completed frame
// into a core.frame span under the parent span at() names, with the
// evaluator busy time spent since the previous frame as its nodal.eval
// child.
func frameObserver(tr *tracer, p *probe, at func() (op, parent int)) func(engine.Iteration) {
	lastBusy, _, _ := p.clock.read()
	return func(it engine.Iteration) {
		end := time.Now()
		op, parent := at()
		start := end.Add(-it.Elapsed)
		fr := tr.add("core.frame", op, parent, start, end)
		busy, _, _ := p.clock.read()
		tr.add("nodal.eval", op, fr, start, start.Add(busy-lastBusy))
		lastBusy = busy
	}
}

// countResponse adds a generation's deterministic work counts.
func countResponse(resp *engine.Response, c map[string]int64) {
	for _, r := range []*engine.Result{resp.Num, resp.Den} {
		if r == nil {
			continue
		}
		c["solves"] += int64(r.TotalSolves)
		c["factorizations"] += int64(r.TotalSolves - r.CacheHits)
		c["joint_hits"] += int64(r.CacheHits)
		c["joint_misses"] += int64(r.CacheMisses)
		c["frames"] += int64(len(r.Iterations))
		c["replayed_frames"] += int64(r.ReplayedFrames)
		c["frame_retries"] += int64(r.FrameRetries)
		for _, it := range r.Iterations {
			if it.NewValid+it.Revised > 0 {
				c["useful_frames"]++
			}
		}
		if r.WarmStarted {
			c["warm_passes"]++
		}
	}
}

// engineLayers derives the engine, core and nodal per-layer metrics of
// a traced segment of generations from its spans, counts and evaluator
// clock.
func engineLayers(seg *segment, tr *tracer, p *probe) map[string]float64 {
	self := tr.selfTimes()
	busy, sum, calls := p.clock.read()
	var opTotal time.Duration
	for _, d := range seg.lat {
		opTotal += d
	}
	c := func(k string) float64 { return float64(seg.counts[k]) }
	return map[string]float64{
		"engine.formulate_ms":          perOp(msOf(self["engine.formulate"]), seg),
		"engine.encode_ms":             perOp(msOf(self["engine.encode"]), seg),
		"nodal.solves_per_op":          perOp(c("solves"), seg),
		"nodal.factorizations_per_op":  perOp(c("factorizations"), seg),
		"nodal.joint_hit_ratio":        ratio(c("joint_hits"), c("solves")),
		"nodal.busy_ms_per_op":         perOp(msOf(busy), seg),
		"nodal.us_per_solve":           ratio(msOf(sum)*1000, float64(calls)),
		"nodal.share":                  ratio(float64(busy), float64(opTotal)),
		"core.frames_per_op":           perOp(c("frames"), seg),
		"core.useful_frame_ratio":      ratio(c("useful_frames"), c("frames")),
		"core.replayed_frame_ratio":    ratio(c("replayed_frames"), c("frames")),
		"core.frame_self_ms_per_op":    perOp(msOf(self["core.frame"]), seg),
		"core.frame_retries_per_op":    perOp(c("frame_retries"), seg),
		"trace.unattributed_ms_per_op": perOp(msOf(self["op"]), seg),
	}
}
