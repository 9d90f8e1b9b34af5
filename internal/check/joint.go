package check

import (
	"repro/internal/core"
	"repro/internal/exact"
)

// JointVsIndependent cross-checks a generation that ran through the
// shared numerator/denominator evaluation cache (the joint form) against an
// independent two-pass generation (core.Config.NoJoint) of the same
// transfer function. The joint values come from a different elimination
// of the same matrices, so coefficients are compared at the given
// relative tolerance — the same budget the exact-oracle checks use —
// rather than bitwise, and the two transfer functions must agree as
// ratios. Counter bookkeeping is asserted too: the independent run must
// report no cache traffic, and a joint run that used the cache must
// account for every solve.
func JointVsIndependent(jnum, jden, inum, iden *core.Result, tol float64, rep *Report) {
	pair := func(j, ind *core.Result) {
		rep.assert(len(j.Coeffs) == len(ind.Coeffs), "joint",
			"%s: coefficient counts differ: joint %d vs independent %d", j.Name, len(j.Coeffs), len(ind.Coeffs))
		for i := range j.Coeffs {
			if i >= len(ind.Coeffs) {
				break
			}
			jc, ic := j.Coeffs[i], ind.Coeffs[i]
			if jc.Status != core.Valid || ic.Status != core.Valid {
				continue
			}
			if ic.Value.Zero() {
				rep.assert(jc.Value.Zero(), "joint",
					"%s s^%d: joint %v where independent is exactly zero", j.Name, i, jc.Value)
				continue
			}
			rep.assert(jc.Value.ApproxEqual(ic.Value, tol), "joint",
				"%s s^%d: joint %v vs independent %v (rel tol %.1g)", j.Name, i, jc.Value, ic.Value, tol)
		}
		rep.assert(ind.CacheHits == 0 && ind.CacheMisses == 0, "joint",
			"%s: independent run reported cache traffic %d/%d", ind.Name, ind.CacheHits, ind.CacheMisses)
		if j.CacheHits+j.CacheMisses > 0 {
			rep.assert(j.CacheHits+j.CacheMisses == j.TotalSolves, "joint",
				"%s: cache traffic %d+%d does not account for %d solves",
				j.Name, j.CacheHits, j.CacheMisses, j.TotalSolves)
		}
	}
	pair(jnum, inum)
	pair(jden, iden)
	rep.assert(exact.RatioEqual(jnum.Poly(), jden.Poly(), inum.Poly(), iden.Poly(), tol), "joint-ratio",
		"%s/%s: joint transfer function disagrees with independent generation beyond rel tol %.1g",
		jnum.Name, jden.Name, tol)
}
