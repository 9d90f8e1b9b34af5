package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/xmath"
)

// The Options.ExactRecovery pass: after generation, verify certified
// coefficients against the exact-arithmetic oracle (internal/exact). A
// coefficient whose certified error bar contains the oracle value is
// upgraded to TierExact and its value replaced by the oracle's
// correctly-rounded rendering. The pass is best-effort:
// when the oracle cannot formulate the request (unsupported spec kind,
// circuit too large for exact arithmetic) the result is left untouched
// and the reason is recorded as an exact-recovery quality event.

// exactRecoveryMaxNodes bounds the circuit size the pass will run the
// exact oracle on when the formulation did not already carry exact
// reference polynomials. The oracle itself reaches the µA741 in under a
// second per determinant; the cap stays because the skip reason it
// produces is part of the wire body, so raising it would change bodies
// under unchanged result keys. It moves with the next refkey bump.
const exactRecoveryMaxNodes = 10

// exactRecovery runs the opt-in recovery pass on resp in place. It never
// fails the request: oracle unavailability is recorded as a quality
// event and the numeric result stands.
func (e *Engine) exactRecovery(req Request, f *Formulation, resp *Response) {
	oraNum, oraDen := f.ExactNum, f.ExactDen
	if oraNum == nil && oraDen == nil {
		if reason := exactRecoveryGate(req); reason != "" {
			recoverySkip(resp, reason)
			return
		}
		b, err := lookup("exact", req.Spec)
		if err != nil {
			recoverySkip(resp, fmt.Sprintf("oracle backend unavailable: %v", err))
			return
		}
		of, err := b.Formulate(req.Circuit, req.Spec)
		if err != nil {
			recoverySkip(resp, fmt.Sprintf("oracle formulation failed: %v", err))
			return
		}
		oraNum, oraDen = of.ExactNum, of.ExactDen
	}
	recoverResult(resp.Num, oraNum)
	recoverResult(resp.Den, oraDen)
}

// exactRecoveryGate reports why the pass cannot build its own oracle for
// req ("" when it can).
func exactRecoveryGate(req Request) string {
	if req.Circuit == nil {
		return "no circuit to formulate the oracle on"
	}
	if n := req.Circuit.NumNodes(); n > exactRecoveryMaxNodes {
		return fmt.Sprintf("circuit has %d nodes, oracle cap is %d", n, exactRecoveryMaxNodes)
	}
	return ""
}

// recoverySkip records the skip reason on both polynomials of the
// response.
func recoverySkip(resp *Response, reason string) {
	for _, r := range []*Result{resp.Num, resp.Den} {
		if r != nil {
			recoveryEvent(r, "skipped: "+reason)
		}
	}
}

// recoveryEvent appends the pass outcome to r's quality events. The
// frame index is the total count of frames dispatched for r (successful,
// retried and failed), so the event deterministically sorts after every
// generation event.
func recoveryEvent(r *Result, detail string) {
	frame := len(r.Iterations) + r.FrameRetries + r.FailedFrames
	r.AddEvent(core.QualityEvent{
		Kind:   core.EventExactRecovery,
		Frame:  frame,
		Target: -1,
		Detail: detail,
	})
}

// recoverResult verifies r's certified coefficients against the oracle
// polynomial and upgrades the matches to TierExact, then recomputes the
// report tier. oracle holds the correctly-rounded renderings of the true
// coefficients (exact.RatPoly.ToXPoly); index i of the polynomial is the
// coefficient of s^i.
func recoverResult(r *Result, oracle Poly) {
	if r == nil {
		return
	}
	if oracle == nil {
		recoveryEvent(r, "skipped: oracle produced no reference polynomial")
		return
	}
	upgraded, mismatched := 0, 0
	for i := range r.Coeffs {
		c := &r.Coeffs[i]
		if i >= len(r.Quality.Coefficients) {
			break
		}
		bar := &r.Quality.Coefficients[i]
		want := oracleCoeff(oracle, i)
		switch c.Status {
		case core.Negligible:
			// A proven-negligible coefficient is exact when the oracle
			// confirms the true coefficient is identically zero.
			if bar.Tier == core.TierCertified && want.Zero() {
				bar.Tier = core.TierExact
				upgraded++
			}
		case core.Valid:
			if bar.Tier != core.TierCertified {
				continue
			}
			if c.Value.Zero() {
				if want.Zero() {
					bar.Tier = core.TierExact
					upgraded++
				} else {
					mismatched++
				}
				continue
			}
			if verifyExact(c.Value, want, bar.RelError) {
				c.Value = want
				bar.Tier = core.TierExact
				bar.RelError = 0
				upgraded++
			} else {
				mismatched++
			}
		}
	}
	r.Quality.Retier()
	// The text still names the former Bareiss oracle: it is part of wire
	// bodies under refkey v4, so it changes with the next key bump.
	recoveryEvent(r, fmt.Sprintf("%d of %d coefficients verified exact against the Bareiss oracle (%d beyond reach)",
		upgraded, len(r.Coeffs), mismatched))
}

// verifyExact reports whether the computed coefficient v is recoverable
// to the oracle rendering want: the oracle value lies within v's
// certified relative bar.
func verifyExact(v, want xmath.XFloat, rel float64) bool {
	if want.Zero() {
		return false // a certified nonzero value cannot be exactly zero
	}
	return v.ApproxEqual(want, rel)
}

// oracleCoeff returns oracle[i], zero beyond the slice (trailing zero
// coefficients are trimmed by the oracle rendering).
func oracleCoeff(p Poly, i int) xmath.XFloat {
	if i < len(p) {
		return p[i]
	}
	return xmath.XFloat{}
}
