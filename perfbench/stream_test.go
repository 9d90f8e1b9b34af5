package main

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/circuits"
)

// serveStream renders the first n requests of a seed's stream.
func serveStream(t *testing.T, seed uint64, n int) [][]byte {
	t.Helper()
	w := &serveMixed{seed: seed}
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range out {
		body, class, spelling, err := w.request(i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = append([]byte(fmt.Sprintf("%v %d\n", class, spelling)), body...)
	}
	return out
}

func TestServeStreamDeterministic(t *testing.T) {
	a, b := serveStream(t, 7, 300), serveStream(t, 7, 300)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("seed 7 request %d differs between two renderings", i)
		}
	}
	c := serveStream(t, 8, 300)
	same := 0
	for i := range a {
		if bytes.Equal(a[i], c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 7 and 8 render the same request stream")
	}
}

// TestServeStreamMix checks every block of the stream holds the mix
// exactly and that cold requests never repeat a content address.
func TestServeStreamMix(t *testing.T) {
	w := &serveMixed{seed: 3}
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range mixClasses {
		total += c.perBlock
	}
	if total != mixBlock {
		t.Fatalf("mixClasses hold %d requests per block, want %d", total, mixBlock)
	}
	cold := map[string]bool{}
	for b := 0; b < 5; b++ {
		got := map[requestClass]int{}
		for i := b * mixBlock; i < (b+1)*mixBlock; i++ {
			body, class, _, err := w.request(i)
			if err != nil {
				t.Fatal(err)
			}
			got[class]++
			if class.cold {
				if cold[string(body)] {
					t.Fatalf("request %d repeats a cold body", i)
				}
				cold[string(body)] = true
			}
		}
		for _, c := range mixClasses {
			if got[c] != c.perBlock {
				t.Errorf("block %d class %+v: %d requests, want %d", b, c, got[c], c.perBlock)
			}
		}
	}
}

func TestLadderPointsDeterministic(t *testing.T) {
	points := func(seed, k uint64) string {
		w := &ladderSweep{seed: seed, base: circuits.RCLadder(40, 1e3, 1e-9)}
		var b bytes.Buffer
		for _, p := range w.points(k) {
			for _, el := range w.base.Elements() {
				fmt.Fprintf(&b, "%s=%x ", el.Name, p.Scale[el.Name])
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	if points(5, 2) != points(5, 2) {
		t.Error("seed 5 sweep 2 differs between two renderings")
	}
	if points(5, 2) == points(6, 2) || points(5, 2) == points(5, 3) {
		t.Error("different seeds or sweeps render the same points")
	}
	w := &ladderSweep{seed: 1, base: circuits.RCLadder(40, 1e3, 1e-9)}
	for _, p := range w.points(0) {
		for name, f := range p.Scale {
			if f < 0.95 || f >= 1.05 {
				t.Fatalf("%s scaled by %v, outside ±5%%", name, f)
			}
		}
	}
}
