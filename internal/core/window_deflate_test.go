package core

import (
	"testing"

	"repro/internal/poly"
	"repro/internal/xmath"
)

func TestMod(t *testing.T) {
	cases := []struct{ a, m, want int }{
		{0, 5, 0},
		{4, 5, 4},
		{5, 5, 0},
		{7, 5, 2},
		{-1, 5, 4},
		{-5, 5, 0},
		{-7, 5, 3},
	}
	for _, tc := range cases {
		if got := mod(tc.a, tc.m); got != tc.want {
			t.Errorf("mod(%d, %d) = %d, want %d", tc.a, tc.m, got, tc.want)
		}
	}
}

func TestGuardExcessTable(t *testing.T) {
	mk := func(explained float64) *deflation {
		d := &deflation{slotErr: make([]xmath.XFloat, 4)}
		if explained != 0 {
			d.slotErr[2] = xmath.FromFloat(explained)
		}
		return d
	}
	cases := []struct {
		name       string
		d          *deflation
		slot       int
		resid      float64
		wantExcess float64
		wantCounts bool
	}{
		{"nil deflation passes through", nil, 2, 3.5, 3.5, true},
		{"zero explained passes through", mk(0), 2, 3.5, 3.5, true},
		{"residue within 2x explained is absorbed", mk(2), 2, 3.9, 0, false},
		{"residue exactly at 2x explained is absorbed", mk(2), 2, 4, 0, false},
		{"excess above 2x explained counts", mk(2), 2, 10, 8, true},
		{"other slots unaffected", mk(2), 1, 3.5, 3.5, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			excess, counts := tc.d.guardExcess(tc.slot, xmath.FromFloat(tc.resid))
			if counts != tc.wantCounts {
				t.Fatalf("counts = %v, want %v", counts, tc.wantCounts)
			}
			if !excess.ApproxEqual(xmath.FromFloat(tc.wantExcess), 1e-12) &&
				!(tc.wantExcess == 0 && excess.Zero()) {
				t.Errorf("excess = %v, want %g", excess, tc.wantExcess)
			}
		})
	}
}

// TestNewDeflationSlotSizing pins the guard-slot table bound: retried
// frames bump kUse past window+guardPoints, and every aliased slot
// k0 + mod(j-k0, kUse) must stay in range.
func TestNewDeflationSlotSizing(t *testing.T) {
	cases := []struct {
		name          string
		n, k0, kUse   int
		wantSlotCount int
	}{
		{"threshold range dominates", 5, 0, 5, 5 + 1 + guardPoints},
		{"bumped kUse dominates", 5, 3, 10, 13},
		{"exactly equal", 5, 4, 5, 5 + 1 + guardPoints},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coeffs := make([]Coefficient, tc.n+1)
			coeffs[0] = Coefficient{Status: Valid, Value: xmath.FromFloat(2)}
			coeffs[tc.n] = Coefficient{Status: Negligible, Bound: xmath.FromFloat(1e-20)}
			var d deflation
			d.reset(coeffs, 2, 0.5, tc.n, tc.n, 6)
			d.aim(span{k0: tc.k0, l0: tc.n, kUse: tc.kUse})
			if len(d.slotErr) != tc.wantSlotCount {
				t.Fatalf("len(slotErr) = %d, want %d", len(d.slotErr), tc.wantSlotCount)
			}
			// Both contributions must have landed on in-range slots.
			landed := 0
			for _, e := range d.slotErr {
				if !e.Zero() {
					landed++
				}
			}
			if landed == 0 {
				t.Error("no deflation residual recorded on any slot")
			}
			if !d.subtracted[0] || d.subtracted[tc.n] {
				t.Errorf("subtracted = %v; want index 0 only", d.subtracted)
			}
		})
	}
}

// classFrame builds a frame for classifier tests: values are plain
// magnitudes, base 1e-10, so with σ=6 the validity threshold is 1e-4.
func classFrame(vals []float64, subtracted []bool) *frame {
	p := make(poly.XPoly, len(vals))
	for i, v := range vals {
		p[i] = xmath.FromFloat(v)
	}
	return &frame{normalized: p, base: xmath.FromFloat(1e-10), subtracted: subtracted}
}

func TestSigmaClassifierTable(t *testing.T) {
	cl := sigmaClassifier{sigDigits: 6}
	cases := []struct {
		name       string
		vals       []float64
		subtracted []bool
		maxIdx     int
		wantLo     int
		wantHi     int
		wantOk     bool
	}{
		{"negative maxIdx (identically zero)", []float64{0, 0}, nil, -1, 0, 0, false},
		{"all noise", []float64{1e-6, 1e-5, 1e-6}, nil, 1, 0, 0, false},
		{"single coefficient", []float64{1e-9, 5, 1e-9}, nil, 1, 1, 1, true},
		{"full range", []float64{1, 2, 3}, nil, 2, 0, 2, true},
		{"boundary exactly at threshold", []float64{1e-4, 1}, nil, 1, 0, 1, true},
		{"boundary just below threshold", []float64{0.99e-4, 1}, nil, 1, 1, 1, true},
		{
			"subtracted interior slot is transparent",
			[]float64{1, 1e-9, 2}, []bool{false, true, false}, 2, 0, 2, true,
		},
		{
			"subtracted low endpoint trimmed",
			[]float64{1e-9, 1, 2}, []bool{true, false, false}, 2, 1, 2, true,
		},
		{
			"subtracted high endpoint trimmed",
			[]float64{1, 2, 1e-9}, []bool{false, false, true}, 1, 0, 1, true,
		},
		{
			"trim both endpoints to the signal core",
			[]float64{1e-9, 7, 1e-9}, []bool{true, false, true}, 1, 1, 1, true,
		},
		{
			"region ends where signal ends",
			[]float64{2, 1e-9, 5, 3}, nil, 2, 2, 3, true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr := classFrame(tc.vals, tc.subtracted)
			lo, hi, ok := cl.Classify(fr, tc.maxIdx)
			if ok != tc.wantOk {
				t.Fatalf("ok = %v, want %v", ok, tc.wantOk)
			}
			if ok && (lo != tc.wantLo || hi != tc.wantHi) {
				t.Errorf("region = [%d, %d], want [%d, %d]", lo, hi, tc.wantLo, tc.wantHi)
			}
		})
	}
}

// TestSigmaClassifierAllSubtractedWindow covers the degenerate frame
// where every slot in the region was deflated: the trim loops must
// terminate (lo == hi) rather than run past each other.
func TestSigmaClassifierAllSubtractedWindow(t *testing.T) {
	cl := sigmaClassifier{sigDigits: 6}
	fr := classFrame([]float64{1e-9, 1e-9, 1e-9}, []bool{true, true, true})
	lo, hi, ok := cl.Classify(fr, 1)
	if !ok {
		t.Fatal("fully subtracted window rejected; subtracted slots are transparent")
	}
	if lo < 0 || hi > 2 || lo > hi {
		t.Errorf("region [%d, %d] out of bounds", lo, hi)
	}
}
