package engine

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
)

// TestPointCopyIsolation: point copies hold only their values over the
// base's element list and name and node tables, yet a value set on, or
// an element added to, one copy — or a "+source" clone of it, as the
// MNA path makes — reaches neither the base nor another copy, and
// neither does one set on or added to the base afterwards.
func TestPointCopyIsolation(t *testing.T) {
	base, _ := ladderSpec(4)
	baseElems, baseNodes := slices.Clone(base.Elements()), slices.Clone(base.Nodes())
	a, err := applyPoint(base, BatchPoint{Scale: map[string]float64{"r1": 2}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := applyPoint(base, BatchPoint{Scale: map[string]float64{"c1": 3}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Topology() != base.Topology() || b.Topology() != base.Topology() {
		t.Fatal("a point copy does not share the base's element list")
	}
	bElems := slices.Clone(b.Elements())
	if err := a.SetValue(1, 7); err != nil {
		t.Fatal(err)
	}
	if err := base.SetValue(2, 11); err != nil {
		t.Fatal(err)
	}
	if err := a.AddElement(circuit.Element{Kind: circuit.Resistor, Name: "rx", P: "in", N: "x", Value: 5}); err != nil {
		t.Fatal(err)
	}
	driven := a.Clone("+source")
	if err := driven.AddElement(circuit.Element{Kind: circuit.VSource, Name: "vs", P: "y", N: "0", Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := base.AddElement(circuit.Element{Kind: circuit.Capacitor, Name: "cz", P: "z", N: "0", Value: 1e-9}); err != nil {
		t.Fatal(err)
	}

	type view struct {
		name        string
		c           *Circuit
		has, hasNot []string // element names
		nodes       []string
	}
	grow := func(nodes []string, more ...string) []string { return append(slices.Clone(nodes), more...) }
	for _, v := range []view{
		{"base", base, []string{"r1", "cz"}, []string{"rx", "vs"}, grow(baseNodes, "z")},
		{"copy a", a, []string{"r1", "rx"}, []string{"vs", "cz"}, grow(baseNodes, "x")},
		{"copy b", b, []string{"r1"}, []string{"rx", "vs", "cz"}, baseNodes},
		{"a+source", driven, []string{"rx", "vs"}, []string{"cz"}, grow(baseNodes, "x", "y")},
	} {
		for _, n := range v.has {
			if !v.c.HasElement(n) {
				t.Errorf("%s lacks element %q", v.name, n)
			}
		}
		for _, n := range v.hasNot {
			if v.c.HasElement(n) {
				t.Errorf("%s has element %q", v.name, n)
			}
		}
		if !slices.Equal(v.c.Nodes(), v.nodes) {
			t.Errorf("%s nodes %v, want %v", v.name, v.c.Nodes(), v.nodes)
		}
		for i, n := range v.nodes {
			if got := v.c.NodeIndex(n); got != i {
				t.Errorf("%s: NodeIndex(%q) = %d, want %d", v.name, n, got, i)
			}
		}
		for _, n := range []string{"x", "y", "z"} {
			if !slices.Contains(v.nodes, n) && v.c.NodeIndex(n) != -2 {
				t.Errorf("%s: NodeIndex(%q) = %d, want -2 (unknown)", v.name, n, v.c.NodeIndex(n))
			}
		}
	}
	// Values: a's r1 doubled and its element 1 set, the base's element 2
	// set, b's c1 tripled; nothing else moved anywhere.
	value := func(c *Circuit, i int) float64 { return c.Elements()[i].Value }
	for _, v := range []struct {
		name string
		c    *Circuit
		want []float64
	}{
		{"base", base, []float64{baseElems[0].Value, baseElems[1].Value, 11}},
		{"copy a", a, []float64{2 * baseElems[0].Value, 7, baseElems[2].Value}},
		{"a+source", driven, []float64{2 * baseElems[0].Value, 7, baseElems[2].Value}},
	} {
		for i, want := range v.want {
			if got := value(v.c, i); got != want || v.c.Value(i) != want {
				t.Errorf("%s: element %d (%s) = %g, want %g", v.name, i, baseElems[i].Name, got, want)
			}
		}
	}
	if got := base.Elements(); !slices.Equal(got[3:len(baseElems)], baseElems[3:]) {
		t.Error("point copies changed the base's element values")
	}
	if !slices.Equal(b.Elements(), bElems) {
		t.Error("changes to copy a or to the base reached copy b's elements")
	}
}

// TestPointCopyConcurrentBatches: GenerateBatch calls running at once
// over one base circuit (under -race in CI) share its tables read-only
// and the process-wide run scratch, and give each point the bits a
// serial run gives it.
func TestPointCopyConcurrentBatches(t *testing.T) {
	base, spec := ladderSpec(12)
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxIterations: 300}
	sets := [][]BatchPoint{
		tolerancePoints(base, 5, 0.05, 1),
		tolerancePoints(base, 5, 0.05, 2),
		tolerancePoints(base, 5, 0.2, 3),
	}
	batch := func(points []BatchPoint) (*BatchResponse, error) {
		return eng.GenerateBatch(context.Background(), BatchRequest{Circuit: base, Spec: spec, Points: points, Options: &opts})
	}
	serial := make([]*BatchResponse, len(sets))
	for i, points := range sets {
		if serial[i], err = batch(points); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 6
	got := make([]*BatchResponse, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[r], errs[r] = batch(sets[r%len(sets)])
		}()
	}
	wg.Wait()
	for r := range runs {
		if errs[r] != nil {
			t.Fatalf("run %d: %v", r, errs[r])
		}
		want := serial[r%len(sets)]
		for i, p := range got[r].Points {
			w := want.Points[i]
			if p.Err != nil || w.Err != nil {
				t.Fatalf("run %d point %d: %v / serial %v", r, i, p.Err, w.Err)
			}
			if !core.CoefficientsEqual(p.Response.Num.Coeffs, w.Response.Num.Coeffs) ||
				!core.CoefficientsEqual(p.Response.Den.Coeffs, w.Response.Den.Coeffs) ||
				p.Solves != w.Solves || p.CacheHits != w.CacheHits || p.Warm != w.Warm {
				t.Errorf("run %d point %d differs from the serial run", r, i)
			}
		}
	}
}

// TestSweepPointAllocBound bounds the bytes a warm ladder40 sweep point
// allocates, over a 16-point GenerateBatch after one that fills the
// scratch stacks: a point copy holds only its values, its system
// re-stamps values over the sweep's shared topology, and runs reuse
// their scratch, where each point used to copy its elements and tables
// and build its system whole (about 82 KiB a point, 42 KiB with shared
// tables). It also holds the sweep's work counters.
func TestSweepPointAllocBound(t *testing.T) {
	const points, maxKiBPerPoint = 16, 34
	base, spec := ladderSpec(40)
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxIterations: 300}
	req := BatchRequest{Circuit: base, Spec: spec, Points: tolerancePoints(base, points, 0.05, 7), Options: &opts}
	sweep := func() *BatchResponse {
		resp, err := eng.GenerateBatch(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	sweep()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp := sweep()
	runtime.ReadMemStats(&after)
	if resp.Failures != 0 || resp.WarmStarts != points-1 || resp.ColdFallbacks != 0 || resp.SolvesPerPoint() != 57 {
		t.Errorf("sweep: %d failures, %d warm starts, %d cold fallbacks, %.1f solves/point; want 0, %d, 0, 57",
			resp.Failures, resp.WarmStarts, resp.ColdFallbacks, resp.SolvesPerPoint(), points-1)
	}
	perPoint := float64(after.TotalAlloc-before.TotalAlloc) / points / 1024
	t.Logf("%.1f KiB allocated per point", perPoint)
	if perPoint > maxKiBPerPoint {
		t.Errorf("%.1f KiB allocated per sweep point, want at most %d", perPoint, maxKiBPerPoint)
	}
}
