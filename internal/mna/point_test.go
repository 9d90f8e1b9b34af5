package mna

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
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

// sameSystem reports whether two systems assemble the same matrix and
// right-hand side bit for bit: order, positions, every value of the G,
// U and C blocks, and the source vector.
func sameSystem(a, b *System) bool {
	bits := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	}
	x, y := &a.asm, &b.asm
	return x.N == y.N && slices.Equal(x.Pos, y.Pos) && bits(x.G, y.G) && bits(x.C, y.C) && bits(a.rhs, b.rhs) &&
		slices.EqualFunc(x.U, y.U, func(u, v complex128) bool {
			return math.Float64bits(real(u)) == math.Float64bits(real(v)) && math.Float64bits(imag(u)) == math.Float64bits(imag(v))
		})
}

// TestPointSystemMatchesFreshBuild: a point system of the fifth-order
// LC ladder stamped over its base's topology (BuildShared with the
// base's system), sources and all, assembles exactly what a fresh Build
// of a materialized copy of the same point does, and shares the base's
// pivot-order plan.
func TestPointSystemMatchesFreshBuild(t *testing.T) {
	c := circuits.LCLadder(5, 50, 1e6)
	base, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	point := pointCopy(t, c, 3)
	shared, err := BuildShared(point, base)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(point.Clone(""))
	if err != nil {
		t.Fatal(err)
	}
	if shared.top != base.top || fresh.top == base.top {
		t.Fatalf("topology shared by the point system %v, by the fresh build %v; want true, false", shared.top == base.top, fresh.top == base.top)
	}
	if !sameSystem(shared, fresh) {
		t.Error("the point system's assembly differs from a fresh build's")
	}
	if sameSystem(shared, base) {
		t.Error("the point system kept the base's values")
	}
	if shared.OrderBound() != fresh.OrderBound() {
		t.Errorf("order bound %d, fresh build %d", shared.OrderBound(), fresh.OrderBound())
	}
}

// TestPointSystemForeignPrior: a prior built from a different element
// list — the same ladder built on its own, or a clone — gives a full
// build with a topology, and so a pivot-order plan, of its own.
func TestPointSystemForeignPrior(t *testing.T) {
	a := circuits.LCLadder(5, 50, 1e6)
	sa, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*circuit.Circuit{circuits.LCLadder(5, 50, 1e6), a.Clone("")} {
		sb, err := BuildShared(c, sa)
		if err != nil {
			t.Fatal(err)
		}
		if sb.top == sa.top {
			t.Errorf("%s: shares the prior's topology", c.Name)
		}
		if !sameSystem(sb, sa) {
			t.Errorf("%s: the full build's assembly differs from the prior's", c.Name)
		}
	}
}
