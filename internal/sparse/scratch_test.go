package sparse_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/sparse"
	"repro/pkg/engine"
)

// scratchCase is one generation that draws its buffers from the shared
// scratch stack.
type scratchCase struct {
	name string
	ckt  *circuit.Circuit
	spec engine.Spec
}

// scratchCases cover the ways evaluations use a scratch: the µA741
// differential gain (nodal lane replays of two projections), the RC
// ladder's voltage gain and a transimpedance from a middle node (nodal
// joint Cramer solves, whose right-hand sides have their unit entry in
// different places) and an LC ladder on the MNA backend (one MNA
// pattern, recording factorizations and transfer solves).
func scratchCases() []scratchCase {
	inp, inn, out := circuits.UA741Inputs()
	ladder := circuits.RCLadder(40, 1e3, 1e-9)
	return []scratchCase{
		{"ua741-diffgain", circuits.UA741(), engine.Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out}},
		{"ladder40-vgain", ladder, engine.Spec{Kind: "vgain", In: "in", Out: circuits.RCLadderOut(40)}},
		{"ladder40-transz", ladder, engine.Spec{Kind: "transz", In: "n20", Out: circuits.RCLadderOut(40)}},
		{"lc5-mna", circuits.LCLadder(5, 50, 1e6), engine.Spec{Kind: "mna", In: "vin", Out: "out"}},
	}
}

func generateBody(t *testing.T, eng *engine.Engine, c scratchCase) []byte {
	t.Helper()
	resp, err := eng.Generate(context.Background(), engine.Request{Circuit: c.ckt, Spec: c.spec})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	body, err := engine.EncodeResponseJSON(resp)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return body
}

// TestSharedScratchInvisible: generations that start from scratches
// other generations grew — of other patterns, sizes and backends —
// produce the bytes of generations that start from an empty stack, in
// either interleaving order.
func TestSharedScratchInvisible(t *testing.T) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases := scratchCases()
	fresh := make([][]byte, len(cases))
	for i, c := range cases {
		sparse.DrainScratch()
		fresh[i] = generateBody(t, eng, c)
	}
	if n, _ := sparse.ScratchStack(); n == 0 {
		t.Fatal("a generation returned no scratch to the stack")
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}} {
		sparse.DrainScratch()
		for round := range 2 {
			for _, i := range order {
				if got := generateBody(t, eng, cases[i]); !bytes.Equal(got, fresh[i]) {
					t.Errorf("order %v, round %d: %s differs from its run on an empty stack", order, round, cases[i].name)
				}
			}
		}
	}
}

// TestScratchStackBounded: eight concurrent µA741 generations with
// eight workers per pass, while the test holds as many scratches as the
// stack keeps, so that every scratch the generations make is one too
// many once all come back. Afterwards the stack holds at most its bound,
// and every body is the serial one.
func TestScratchStackBounded(t *testing.T) {
	opts := engine.Options{Parallelism: 8}
	eng, err := engine.New(engine.Config{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	ua741 := scratchCases()[0]
	sparse.DrainScratch()
	want := generateBody(t, eng, ua741)
	held := make([]*sparse.Scratch, sparse.MaxScratches)
	for i := range held {
		held[i] = sparse.GetScratch()
	}
	const gens = 8
	bodies := make([][]byte, gens)
	var wg sync.WaitGroup
	for g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[g] = generateBody(t, eng, ua741)
		}()
	}
	wg.Wait()
	for _, sc := range held {
		sparse.PutScratch(sc)
	}
	n, size := sparse.ScratchStack()
	if n > sparse.MaxScratches || size > sparse.MaxScratchBytes {
		t.Errorf("stack holds %d scratches of %d bytes, bound %d and %d", n, size, sparse.MaxScratches, sparse.MaxScratchBytes)
	}
	for g, body := range bodies {
		if !bytes.Equal(body, want) {
			t.Errorf("concurrent generation %d differs from the serial body", g)
		}
	}
}

// TestScratchStackDropsPastBounds: returning more scratches than the
// count bound, or more bytes than the size bound, leaves the excess to
// the garbage collector.
func TestScratchStackDropsPastBounds(t *testing.T) {
	sparse.DrainScratch()
	defer sparse.DrainScratch()
	var held []*sparse.Scratch
	for range sparse.MaxScratches + 8 {
		held = append(held, sparse.GetScratch())
	}
	for _, sc := range held {
		sparse.PutScratch(sc)
	}
	if n, _ := sparse.ScratchStack(); n != sparse.MaxScratches {
		t.Errorf("stack holds %d of %d returned scratches, want %d", n, len(held), sparse.MaxScratches)
	}

	sparse.DrainScratch()
	const vecLen = 1 << 15 // two vectors of 512 KiB each
	const count = sparse.MaxScratchBytes/(2*16*vecLen) + 2
	for range count {
		sc := new(sparse.Scratch)
		sc.Vectors(vecLen, 1)
		sparse.PutScratch(sc)
	}
	if n, size := sparse.ScratchStack(); n >= count || size > sparse.MaxScratchBytes {
		t.Errorf("stack holds %d of %d large scratches, %d bytes (bound %d)", n, count, size, sparse.MaxScratchBytes)
	}
}
