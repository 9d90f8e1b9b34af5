package engine_test

import (
	"bytes"
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/circuits"
	"repro/pkg/engine"
)

// observed generates one request at the given parallelism and returns
// the response, its encoded body and the Iterations the Observer saw, in
// order. The Observer fails the test if it is ever entered while
// another call is still running.
func observed(t *testing.T, c *engine.Circuit, spec engine.Spec, opts engine.Options, parallelism int) (*engine.Response, []byte, []engine.WireIteration) {
	t.Helper()
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var busy atomic.Bool
	var overlaps atomic.Int32
	var seen []engine.WireIteration
	opts.Parallelism = parallelism
	resp, err := eng.Generate(context.Background(), engine.Request{
		Circuit: c, Spec: spec, Options: &opts,
		Observer: func(it engine.Iteration) {
			if !busy.CompareAndSwap(false, true) {
				overlaps.Add(1)
				return
			}
			defer busy.Store(false)
			seen = append(seen, engine.IterationWire(it))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("parallelism %d: the Observer was entered %d times while a call was running", parallelism, n)
	}
	raw, err := engine.EncodeResponseJSON(resp)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw, seen
}

// TestOverlappedPassesInvisible pins that overlapping the numerator and
// denominator passes of a transfer function without a joint cache
// (diffgain) changes nothing a caller can see: the wire body is byte-
// identical to the strictly sequential run (Parallelism 1), and the
// Observer sees the same iterations in the same order — every
// numerator iteration first — with its calls never concurrent. The
// vgain case takes the joint-cache path, which stays sequential: its
// denominator keeps the numerator's cache hits.
func TestOverlappedPassesInvisible(t *testing.T) {
	ua, ub, uo := circuits.UA741Inputs()
	oa, ob, oo := circuits.OTAInputs()
	lin, lout := "in", circuits.RCLadderOut(40)
	cases := []struct {
		name string
		c    *engine.Circuit
		spec engine.Spec
		opts engine.Options
		// hits and misses are the joint-cache counters of the
		// numerator and the denominator pass (vgain only).
		hits, misses [2]int
	}{
		{name: "ua741-diffgain", c: circuits.UA741(), spec: engine.Spec{Kind: "diffgain", In: ua, Inn: ub, Out: uo}},
		{name: "ota-diffgain", c: circuits.OTA(), spec: engine.Spec{Kind: "diffgain", In: oa, Inn: ob, Out: oo}},
		{name: "ladder40-vgain", c: circuits.RCLadder(40, 1e3, 1e-9), spec: engine.Spec{Kind: "vgain", In: lin, Out: lout},
			opts: engine.Options{MaxIterations: 300}, hits: [2]int{0, 23}, misses: [2]int{23, 29}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, serialBody, serialSeen := observed(t, tc.c, tc.spec, tc.opts, 1)
			overlapped, body, seen := observed(t, tc.c, tc.spec, tc.opts, 0)
			if !bytes.Equal(body, serialBody) {
				t.Errorf("body at parallelism 0 differs from the sequential one (%d vs %d bytes)", len(body), len(serialBody))
			}
			if !reflect.DeepEqual(seen, serialSeen) {
				t.Errorf("Observer sequence differs:\nparallel   %+v\nsequential %+v", seen, serialSeen)
			}
			nNum, nDen := len(serial.Num.Iterations), len(serial.Den.Iterations)
			if len(seen) != nNum+nDen {
				t.Fatalf("Observer saw %d iterations, want %d numerator + %d denominator", len(seen), nNum, nDen)
			}
			for i, it := range overlapped.Num.Iterations {
				if seen[i].FScale != it.FScale || seen[i].GScale != it.GScale || seen[i].K != it.K {
					t.Errorf("Observer call %d is not numerator iteration %d", i, i)
				}
			}
			for _, r := range []*engine.Response{serial, overlapped} {
				got := [2][2]int{{r.Num.CacheHits, r.Den.CacheHits}, {r.Num.CacheMisses, r.Den.CacheMisses}}
				if want := [2][2]int{tc.hits, tc.misses}; got != want {
					t.Errorf("joint cache (hits, misses) per pass = %v, want %v", got, want)
				}
			}
		})
	}
}
