package nodal

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/interp"
	"repro/internal/sparse"
	"repro/internal/xmath"
)

// pointCopy returns a point copy of c (circuit.WithValues) with every
// value scaled by a seeded factor in [0.95, 1.05).
func pointCopy(t *testing.T, c *circuit.Circuit, seed int64) *circuit.Circuit {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, c.NumElements())
	for i := range vals {
		vals[i] = c.Value(i) * (1 + 0.05*(2*rng.Float64()-1))
	}
	p, err := c.WithValues(vals)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sameAssembly reports whether two typed-stamp assemblies are equal bit
// for bit: order, positions and every value of every block.
func sameAssembly(a, b *sparse.Assembly) bool {
	bits := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	}
	return a.N == b.N && slices.Equal(a.Pos, b.Pos) && bits(a.G, b.G) && bits(a.C, b.C) &&
		slices.EqualFunc(a.U, b.U, func(u, v complex128) bool {
			return math.Float64bits(real(u)) == math.Float64bits(real(v)) && math.Float64bits(imag(u)) == math.Float64bits(imag(v))
		})
}

// TestPointSystemMatchesFreshBuild: a point system stamped over its
// base's topology (BuildShared with the base's system) assembles every
// pattern of the ladder40 voltage gain and the µA741 differential gain
// and transimpedance exactly as a fresh Build of a materialized copy of
// the same point does: the same positions and the same G and C blocks,
// bit for bit.
func TestPointSystemMatchesFreshBuild(t *testing.T) {
	uinp, uinn, uout := circuits.UA741Inputs()
	ladder, ua741 := circuits.RCLadder(40, 1e3, 1e-9), circuits.UA741()
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
		tf   func(*System, *circuit.Circuit) (*interp.TransferFunction, error)
	}{
		{"ladder40 vgain", ladder, func(s *System, c *circuit.Circuit) (*interp.TransferFunction, error) {
			return s.VoltageGain(c, "in", circuits.RCLadderOut(40))
		}},
		{"ua741 diffgain", ua741, func(s *System, c *circuit.Circuit) (*interp.TransferFunction, error) {
			return s.DifferentialVoltageGain(c, uinp, uinn, uout)
		}},
		{"ua741 transz", ua741, func(s *System, c *circuit.Circuit) (*interp.TransferFunction, error) {
			return s.Transimpedance(c, uinp, uout)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := Build(tc.c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tc.tf(base, tc.c); err != nil {
				t.Fatal(err)
			}
			point := pointCopy(t, tc.c, 3)
			shared, err := BuildShared(point, base)
			if err != nil {
				t.Fatal(err)
			}
			materialized := point.Clone("")
			fresh, err := Build(materialized)
			if err != nil {
				t.Fatal(err)
			}
			if shared.top != base.top || fresh.top == base.top {
				t.Fatalf("topology shared by the point system %v, by the fresh build %v; want true, false", shared.top == base.top, fresh.top == base.top)
			}
			if _, err := tc.tf(shared, point); err != nil {
				t.Fatal(err)
			}
			if _, err := tc.tf(fresh, materialized); err != nil {
				t.Fatal(err)
			}
			if len(base.top.patterns) < 2 || len(fresh.top.patterns) != len(base.top.patterns) {
				t.Fatalf("%d shared patterns, %d fresh", len(base.top.patterns), len(fresh.top.patterns))
			}
			for key, pat := range base.top.patterns {
				got, want := shared.bounds[key], fresh.bounds[key]
				if got == nil || want == nil || got.pattern != pat {
					t.Fatalf("pattern %v: point bound %v, fresh bound %v", key, got != nil, want != nil)
				}
				if !sameAssembly(got.assembly(), want.assembly()) {
					t.Errorf("pattern %v: the point system's assembly differs from a fresh build's", key)
				}
			}
		})
	}
}

// TestPointSystemForeignPrior: a prior system built from a different
// element list — an identical circuit built on its own, or a clone —
// gives a full build with a topology of its own, adopting no pattern.
func TestPointSystemForeignPrior(t *testing.T) {
	a := circuits.RCLadder(6, 1e3, 1e-12)
	sa, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sa.VoltageGain(a, "in", "n6"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*circuit.Circuit{circuits.RCLadder(6, 1e3, 1e-12), a.Clone("")} {
		sb, err := BuildShared(c, sa)
		if err != nil {
			t.Fatal(err)
		}
		if sb.top == sa.top || len(sb.top.patterns) != 0 {
			t.Errorf("%s: shares the prior's topology %v, %d patterns; want false, 0", c.Name, sb.top == sa.top, len(sb.top.patterns))
		}
		if !sameAssembly(sb.detPattern().assembly(), sa.detPattern().assembly()) {
			t.Errorf("%s: the full build's assembly differs from the prior's", c.Name)
		}
	}
}

// TestPointSystemConcurrentFormulation: point systems of one topology
// formulate at once — each adding a pattern of its own to the shared
// cache and priming its plan, beside the patterns the base primed — and
// each evaluates to the bits a serial run gives it.
func TestPointSystemConcurrentFormulation(t *testing.T) {
	const workers = 8
	c := circuits.RCLadder(12, 1e3, 1e-9)
	out := circuits.RCLadderOut(12)
	f, g, _, _ := c.SeedScales()
	eval := func(base *System, p *circuit.Circuit, in string) (num, den [2]xmath.XComplex, err error) {
		sys, err := BuildShared(p, base)
		if err != nil {
			return num, den, err
		}
		for k, mk := range []func() (*interp.TransferFunction, error){
			func() (*interp.TransferFunction, error) { return sys.VoltageGain(p, "in", out) },
			func() (*interp.TransferFunction, error) { return sys.Transimpedance(p, in, out) },
		} {
			tf, err := mk()
			if err != nil {
				return num, den, err
			}
			num[k], den[k] = tf.Num.Eval(0.5i, f, g), tf.Den.Eval(0.5i, f, g)
		}
		return num, den, nil
	}
	points := make([]*circuit.Circuit, workers)
	for w := range points {
		points[w] = pointCopy(t, c, int64(w))
	}
	in := func(w int) string { return c.Nodes()[1+w%(c.NumNodes()-2)] }
	run := func(parallel bool) (nums, dens [workers][2]xmath.XComplex) {
		base, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		// The base primes the patterns every point shares, so no point's
		// values choose their pivot order.
		if _, _, err := eval(base, c, in(0)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := range workers {
			do := func() {
				var err error
				if nums[w], dens[w], err = eval(base, points[w], in(w)); err != nil {
					t.Error(err)
				}
			}
			if !parallel {
				do()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				do()
			}()
		}
		wg.Wait()
		return nums, dens
	}
	wantNum, wantDen := run(false)
	gotNum, gotDen := run(true)
	if gotNum != wantNum || gotDen != wantDen {
		t.Errorf("concurrent point systems evaluate to other values than serial ones:\n%v %v\n%v %v", gotNum, gotDen, wantNum, wantDen)
	}
}
