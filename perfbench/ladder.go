package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/pkg/engine"
)

const (
	// sweepLen is the number of points of one GenerateBatch sweep: the
	// first runs cold, the other 63 replay their predecessor's schedule.
	sweepLen = 64
	// ladderSamples is how many points (one per sweep, seeded) are
	// compared with a cold generation after the timed window.
	ladderSamples = 6
)

// ladderSweep runs Engine.GenerateBatch over seeded ±5% Monte-Carlo
// point sets of the 40-section RC ladder, sweep after sweep. One op is
// one point; its latency runs from the point's formulation to the next
// point's (the benchmark's backend wrapper marks each formulation call).
type ladderSweep struct {
	seed         uint64
	eng          *engine.Engine
	base         *engine.Circuit
	spec         engine.Spec
	heurF, heurG float64
	tr           *tracer
	p            *probe
	marks        []time.Time
	// Traced span state: the current point's op index and its op and
	// engine.generate spans.
	op, opSpan, genSpan int
}

// ladderSample is a point kept for the cold-generation check.
type ladderSample struct {
	sweep, index int
	scale        map[string]float64
	resp         *engine.Response
}

func newLadderSweep(seed uint64) workload { return &ladderSweep{seed: seed} }

// batchOptions are the generation options of every sweep (the existing
// batch benchmarks' settings).
func batchOptions() engine.Options { return engine.Options{MaxIterations: 300} }

// points returns the seeded point set of sweep k: every element value
// scaled by an independent factor in [0.95, 1.05).
func (w *ladderSweep) points(k uint64) []engine.BatchPoint {
	rng := rand.New(rand.NewSource(int64(mix(w.seed, k))))
	els := w.base.Elements()
	pts := make([]engine.BatchPoint, sweepLen)
	for i := range pts {
		scale := make(map[string]float64, len(els))
		for _, e := range els {
			scale[e.Name] = 1 + 0.05*(2*rng.Float64()-1)
		}
		pts[i] = engine.BatchPoint{Scale: scale}
	}
	return pts
}

func (w *ladderSweep) setup(tr *tracer) error {
	w.base = circuits.RCLadder(40, 1e3, 1e-9)
	w.spec = engine.Spec{Kind: "vgain", In: "in", Out: circuits.RCLadderOut(40)}
	w.heurF, w.heurG = engine.DefaultScales(w.base)
	backend := "perfbench-mark:nodal"
	if tr != nil {
		backend = "perfbench-time:nodal"
	}
	w.tr = nil
	w.newProbe()
	eng, err := engine.New(engine.Config{Backend: backend})
	if err != nil {
		return err
	}
	w.eng = eng
	// Warm-up sweep on a stream of its own, before tracing starts.
	opts := batchOptions()
	resp, err := eng.GenerateBatch(context.Background(), engine.BatchRequest{
		Circuit: w.base, Spec: w.spec, Points: w.points(1 << 40)[:4], Options: &opts,
	})
	if err != nil {
		return err
	}
	if resp.Failures != 0 {
		return fmt.Errorf("warm-up sweep: %d failed points", resp.Failures)
	}
	w.tr = tr
	w.op, w.opSpan, w.genSpan = -1, -1, -1
	w.newProbe()
	return nil
}

// newProbe points the wrappers at a fresh probe, so counts start at 0.
func (w *ladderSweep) newProbe() {
	w.p = &probe{mark: w.mark, formulate: w.formulated}
	active.Store(w.p)
}

func (w *ladderSweep) close() {}

// mark is called as each point's formulation starts.
func (w *ladderSweep) mark(now time.Time) {
	w.marks = append(w.marks, now)
	if w.tr == nil {
		return
	}
	w.endPoint(now)
	w.op++
	w.opSpan = w.tr.open("op", w.op, -1, now)
}

// formulated records a point's formulation span; generation follows.
func (w *ladderSweep) formulated(start, end time.Time) {
	if w.tr == nil {
		return
	}
	w.tr.add("engine.formulate", w.op, w.opSpan, start, end)
	w.genSpan = w.tr.open("engine.generate", w.op, w.opSpan, end)
}

// endPoint closes the current point's open spans.
func (w *ladderSweep) endPoint(now time.Time) {
	if w.genSpan >= 0 {
		w.tr.close(w.genSpan, now)
	}
	if w.opSpan >= 0 {
		w.tr.close(w.opSpan, now)
	}
	w.opSpan, w.genSpan = -1, -1
}

func (w *ladderSweep) run(stop func(time.Duration, int) bool) (*segment, error) {
	seg := &segment{counts: map[string]int64{}}
	var samples []ladderSample
	start := time.Now()
	for k := 0; !stop(time.Since(start), k); k++ {
		pts := w.points(uint64(k))
		opts := batchOptions()
		if w.tr != nil {
			opts.Observer = frameObserver(w.tr, w.p, func() (int, int) { return w.op, w.genSpan })
		}
		w.marks = w.marks[:0]
		t0 := time.Now()
		resp, err := w.eng.GenerateBatch(context.Background(), engine.BatchRequest{
			Circuit: w.base, Spec: w.spec, Points: pts, Options: &opts,
		})
		t1 := time.Now()
		if w.tr != nil {
			w.endPoint(t1)
		}
		seg.units++
		if err != nil {
			return nil, fmt.Errorf("sweep %d: %w", k, err)
		}
		if len(w.marks) != len(pts) {
			return nil, fmt.Errorf("sweep %d: %d formulations for %d points", k, len(w.marks), len(pts))
		}
		bounds := append(append([]time.Time{t0}, w.marks[1:]...), t1)
		for i, pr := range resp.Points {
			lat := bounds[i+1].Sub(bounds[i])
			seg.lat = append(seg.lat, lat)
			if pr.Warm {
				seg.hits = append(seg.hits, lat)
			} else {
				seg.misses = append(seg.misses, lat)
			}
			err := pr.Err
			if err == nil {
				err = noUnknown(pr.Response)
			}
			if err != nil {
				seg.failed++
				seg.notes = append(seg.notes, fmt.Sprintf("sweep %d point %d: %v", k, i, err))
			}
			if pr.Response != nil {
				countResponse(pr.Response, seg.counts)
			}
		}
		seg.counts["points"] += int64(len(resp.Points))
		seg.counts["warm_starts"] += int64(resp.WarmStarts)
		seg.counts["cold_fallbacks"] += int64(resp.ColdFallbacks)
		seg.counts["batch_solves"] += int64(resp.TotalSolves)
		if len(samples) < ladderSamples {
			j := int(mix(w.seed^0x5a3b, uint64(k)) % sweepLen)
			samples = append(samples, ladderSample{k, j, pts[j].Scale, resp.Points[j].Response})
		}
	}
	seg.elapsed = time.Since(start)
	seg.kept = samples
	return seg, nil
}

// verify generates each kept point cold (same options and seed scales
// as the sweep, no warm start, no shared plans) and requires σ-digit
// agreement with the point as the sweep produced it.
func (w *ladderSweep) verify(seg *segment) (int, []string) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		return 1, []string{err.Error()}
	}
	failed := 0
	var notes []string
	for _, s := range seg.kept.([]ladderSample) {
		err := func() error {
			if s.resp == nil {
				return fmt.Errorf("no response")
			}
			ckt, err := scaled(w.base, s.scale)
			if err != nil {
				return err
			}
			opts := batchOptions()
			opts.InitFScale, opts.InitGScale = w.heurF, w.heurG
			cold, err := eng.Generate(context.Background(), engine.Request{Circuit: ckt, Spec: w.spec, Options: &opts})
			if err != nil {
				return fmt.Errorf("cold generation: %w", err)
			}
			return agree(s.resp, cold, sigmaTol(cold.Den.SigDigits))
		}()
		if err != nil {
			failed++
			notes = append(notes, fmt.Sprintf("sweep %d point %d vs cold: %v", s.sweep, s.index, err))
		}
	}
	notes = append(notes, fmt.Sprintf("%d sampled points agree with cold generations", len(seg.kept.([]ladderSample))-failed))
	return failed, notes
}

// scaled is base with the named element values multiplied by scale.
func scaled(base *engine.Circuit, scale map[string]float64) (*engine.Circuit, error) {
	out := circuit.New(base.Name)
	for _, el := range base.Elements() {
		if f, ok := scale[el.Name]; ok {
			el.Value *= f
		}
		if err := out.AddElement(el); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (w *ladderSweep) layers(seg *segment, tr *tracer) map[string]float64 {
	m := engineLayers(seg, tr, w.p)
	c := func(k string) float64 { return float64(seg.counts[k]) }
	m["core.outside_frames_ms_per_op"] = perOp(msOf(tr.selfTimes()["engine.generate"]), seg)
	m["engine.batch.warm_ratio"] = ratio(c("warm_starts"), c("points")-float64(seg.units))
	m["engine.batch.cold_fallbacks"] = c("cold_fallbacks")
	m["engine.batch.solves_per_point"] = ratio(c("batch_solves"), c("points"))
	return m
}
