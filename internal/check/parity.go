package check

import (
	"repro/internal/core"
	"repro/internal/xmath"
)

// bitEqual reports exact representation equality of two extended-range
// scalars (not merely numerical closeness).
func bitEqual(a, b xmath.XFloat) bool {
	return a.Mant() == b.Mant() && a.Exp() == b.Exp()
}

// ParityResults asserts that two generator runs produced bit-identical
// results — the contract that makes the parallel fast path safe to
// enable by default. Every coefficient, bound, quality, and iteration
// record must match exactly; "close enough" is a parity failure.
func ParityResults(a, b *core.Result, rep *Report) {
	rep.assert(len(a.Coeffs) == len(b.Coeffs), "parity",
		"%s: coefficient counts differ: %d vs %d", a.Name, len(a.Coeffs), len(b.Coeffs))
	rep.assert(len(a.Iterations) == len(b.Iterations), "parity",
		"%s: iteration counts differ: %d vs %d", a.Name, len(a.Iterations), len(b.Iterations))
	rep.assert(a.Disagreements == b.Disagreements, "parity",
		"%s: disagreement counters differ: %d vs %d", a.Name, a.Disagreements, b.Disagreements)
	// The work counters are deterministic by design (solves are fixed by
	// the iteration trajectory; joint-cache misses count distinct keys),
	// so they are part of the parity contract too.
	rep.assert(a.TotalSolves == b.TotalSolves, "parity",
		"%s: solve counters differ: %d vs %d", a.Name, a.TotalSolves, b.TotalSolves)
	rep.assert(a.CacheHits == b.CacheHits && a.CacheMisses == b.CacheMisses, "parity",
		"%s: cache counters differ: %d/%d vs %d/%d", a.Name, a.CacheHits, a.CacheMisses, b.CacheHits, b.CacheMisses)
	for i := range a.Coeffs {
		if i >= len(b.Coeffs) {
			break
		}
		ca, cb := a.Coeffs[i], b.Coeffs[i]
		rep.assert(ca.Status == cb.Status, "parity",
			"%s s^%d: status %v vs %v", a.Name, i, ca.Status, cb.Status)
		rep.assert(bitEqual(ca.Value, cb.Value), "parity",
			"%s s^%d: value %v vs %v (not bit-identical)", a.Name, i, ca.Value, cb.Value)
		rep.assert(bitEqual(ca.Bound, cb.Bound), "parity",
			"%s s^%d: bound %v vs %v (not bit-identical)", a.Name, i, ca.Bound, cb.Bound)
		rep.assert(ca.Quality == cb.Quality, "parity",
			"%s s^%d: quality %v vs %v", a.Name, i, ca.Quality, cb.Quality)
		rep.assert(ca.Iteration == cb.Iteration, "parity",
			"%s s^%d: resolving iteration %d vs %d", a.Name, i, ca.Iteration, cb.Iteration)
	}
	// The quality report is part of the deterministic surface: tier,
	// error bars and the event log (including its frame ordering) must
	// be identical whichever worker count produced the result.
	rep.assert(a.Quality.Tier == b.Quality.Tier, "parity",
		"%s: quality tiers differ: %v vs %v", a.Name, a.Quality.Tier, b.Quality.Tier)
	rep.assert(len(a.Quality.Coefficients) == len(b.Quality.Coefficients), "parity",
		"%s: error bar counts differ: %d vs %d", a.Name, len(a.Quality.Coefficients), len(b.Quality.Coefficients))
	for i := range a.Quality.Coefficients {
		if i >= len(b.Quality.Coefficients) {
			break
		}
		rep.assert(a.Quality.Coefficients[i] == b.Quality.Coefficients[i], "parity",
			"%s s^%d: error bars differ: %+v vs %+v", a.Name, i,
			a.Quality.Coefficients[i], b.Quality.Coefficients[i])
	}
	rep.assert(len(a.Quality.Events) == len(b.Quality.Events), "parity",
		"%s: quality event counts differ: %d vs %d", a.Name, len(a.Quality.Events), len(b.Quality.Events))
	for i := range a.Quality.Events {
		if i >= len(b.Quality.Events) {
			break
		}
		ea, eb := a.Quality.Events[i], b.Quality.Events[i]
		rep.assert(ea.Kind == eb.Kind && ea.Frame == eb.Frame && ea.Target == eb.Target && ea.Detail == eb.Detail,
			"parity", "%s: quality event %d differs: %v vs %v", a.Name, i, ea, eb)
	}
	for k := range a.Iterations {
		if k >= len(b.Iterations) {
			break
		}
		ia, ib := a.Iterations[k], b.Iterations[k]
		rep.assert(ia.Purpose == ib.Purpose && ia.FScale == ib.FScale && ia.GScale == ib.GScale,
			"parity", "%s it%d: (%s f=%v g=%v) vs (%s f=%v g=%v)",
			a.Name, k, ia.Purpose, ia.FScale, ia.GScale, ib.Purpose, ib.FScale, ib.GScale)
		rep.assert(ia.K == ib.K && ia.Offset == ib.Offset && ia.Lo == ib.Lo && ia.Hi == ib.Hi,
			"parity", "%s it%d: window/region differ: K=%d off=%d s^%d..s^%d vs K=%d off=%d s^%d..s^%d",
			a.Name, k, ia.K, ia.Offset, ia.Lo, ia.Hi, ib.K, ib.Offset, ib.Lo, ib.Hi)
		same := len(ia.Normalized) == len(ib.Normalized)
		if same {
			for i := range ia.Normalized {
				if !bitEqual(ia.Normalized[i], ib.Normalized[i]) {
					same = false
					break
				}
			}
		}
		rep.assert(same, "parity", "%s it%d: normalized windows not bit-identical", a.Name, k)
	}
}
