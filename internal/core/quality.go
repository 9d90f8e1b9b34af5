package core

import (
	"fmt"
	"math"
)

// Tier grades how much trust a result (or one coefficient of it) has
// earned. Tiers are ordered: a higher tier is strictly stronger, so the
// tier of a whole result is the minimum over its coefficients.
type Tier int

const (
	// TierDegraded: generation gave up on part of the range (a frame
	// exhausted its retries, a watchdog fired, the budget ran out) or the
	// run ended early; at least one coefficient is Unknown or unreliable.
	TierDegraded Tier = iota
	// TierNumeric: every coefficient is resolved, but at least one
	// carries no certified error bar — the run saw overlap disagreements,
	// or a coefficient's conditioning estimate exceeds its measured
	// quality margin.
	TierNumeric
	// TierCertified: every coefficient carries an error bar backed by the
	// frame-conditioning model (ErrorBar.RelError bounds the relative
	// error) and the run was internally consistent.
	TierCertified
	// TierExact: the coefficient was reconstructed as a rational and
	// verified against the exact-arithmetic oracle; its value is the
	// correctly-rounded rendering of the true coefficient.
	TierExact
)

func (t Tier) String() string {
	switch t {
	case TierDegraded:
		return "degraded"
	case TierNumeric:
		return "numeric"
	case TierCertified:
		return "certified"
	case TierExact:
		return "exact"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// ParseTier is the inverse of Tier.String.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "degraded":
		return TierDegraded, nil
	case "numeric":
		return TierNumeric, nil
	case "certified":
		return TierCertified, nil
	case "exact":
		return TierExact, nil
	}
	return TierDegraded, fmt.Errorf("core: unknown quality tier %q (want degraded, numeric, certified or exact)", s)
}

// Quality-event kinds.
const (
	// EventFault: a fault, retry or watchdog event from the generation
	// loop; Err carries a taxonomy error (errors.go).
	EventFault = "fault"
	// EventWarning: a non-fatal diagnostic (e.g. an initial-scale
	// heuristic that fell back to 1.0).
	EventWarning = "warning"
	// EventColdFallback: a requested warm start was refused or aborted
	// and the run proceeded cold; Detail carries the reason.
	EventColdFallback = "cold-fallback"
	// EventExactRecovery: the outcome of an Options.ExactRecovery pass
	// (coefficients verified, or the reason the pass was skipped).
	EventExactRecovery = "exact-recovery"
)

// QualityEvent is one entry of QualityReport.Events: every fault, retry,
// watchdog, warm-start fallback and diagnostic observed while producing
// the result, ordered by frame index.
type QualityEvent struct {
	// Kind is one of the Event* constants.
	Kind string
	// Frame is the count of evaluation frames (successful or failed)
	// dispatched before the event — a deterministic position marker. -1
	// for events not tied to a frame (warnings, fallbacks).
	Frame int
	// Target is the coefficient index being pursued, -1 when none.
	Target int
	// Err is the typed taxonomy error for fault events (dispatch with
	// errors.Is, details with errors.As). Nil for other kinds, and nil
	// after a wire round trip — Detail survives serialization, Err does
	// not.
	Err error
	// Detail is the human-readable description; always set (for faults
	// it is Err.Error()).
	Detail string
}

func (e QualityEvent) String() string {
	if e.Frame >= 0 {
		return fmt.Sprintf("%s: frame %d (target s^%d): %s", e.Kind, e.Frame, e.Target, e.Detail)
	}
	return fmt.Sprintf("%s: %s", e.Kind, e.Detail)
}

// relErrorFloor is the smallest relative error a certified bar claims.
// Denormalization divides by f^i·g^(M−i), so even a perfectly measured
// normalized coefficient carries O(M) ulps of power-evaluation round-off;
// the floor (~450 ulps) covers that without pretending to sub-float64
// accuracy.
const relErrorFloor = 1e-13

// ErrorBar is the per-coefficient accuracy certificate: a relative error
// estimate derived from the resolving frame's conditioning, plus the
// provenance that produced it.
type ErrorBar struct {
	// Tier grades this coefficient alone (the result tier is the minimum
	// over coefficients).
	Tier Tier
	// RelError estimates the relative error of the value: for certified
	// coefficients it bounds |computed−true|/|true|. Zero for exact and
	// proven-negligible coefficients, and for Unknown ones (no estimate
	// exists).
	RelError float64
	// CondLog10 is the resolving frame's condition estimate in decades:
	// log10 of the largest magnitude entering the inverse transform over
	// the error base the σ-classifier assumed (Smoktunowicz-style
	// Vandermonde/divided-difference growth; 0 when the assumption held).
	CondLog10 float64
	// DriftLog10 is the resolving frame's scale drift from the seed pair,
	// max(|log10(f/f0)|, |log10(g/g0)|) in decades.
	DriftLog10 float64
	// Retries is the retry-geometry attempt the resolving frame succeeded
	// with (0 = first try).
	Retries int
	// Frame is the index into Result.Iterations of the resolving frame.
	Frame int
}

// QualityReport is the unified quality-of-result contract: one tier for
// the whole result, one error bar per coefficient, and every event
// observed on the way.
type QualityReport struct {
	// Tier is the minimum coefficient tier (degraded when generation gave
	// up or ended early).
	Tier Tier
	// Coefficients holds one ErrorBar per Result.Coeffs entry.
	Coefficients []ErrorBar
	// Events records faults, warnings and fallbacks, sorted by frame
	// index (non-frame events first, recording order preserved within a
	// frame).
	Events []QualityEvent
}

// WorstRelError returns the largest certified/numeric relative error
// estimate over the coefficients (0 when every coefficient is exact,
// negligible or unknown).
func (q *QualityReport) WorstRelError() float64 {
	worst := 0.0
	for _, b := range q.Coefficients {
		if b.RelError > worst {
			worst = b.RelError
		}
	}
	return worst
}

// Retier recomputes the report tier as the minimum coefficient tier. A
// degraded report stays degraded: that verdict reflects the run, not the
// bars. Used after a recovery pass upgrades individual coefficients.
func (q *QualityReport) Retier() {
	if q.Tier == TierDegraded || len(q.Coefficients) == 0 {
		return
	}
	t := TierExact
	for _, b := range q.Coefficients {
		if b.Tier < t {
			t = b.Tier
		}
	}
	q.Tier = t
}

// CountEvents returns the number of events of the given kind.
func (q *QualityReport) CountEvents(kind string) int {
	n := 0
	for _, e := range q.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// AddEvent records ev keeping Events sorted by frame index. The insert
// is stable: events of the same frame keep their recording order, and
// non-frame events (Frame −1) sort first.
func (r *Result) AddEvent(ev QualityEvent) {
	evs := r.Quality.Events
	i := len(evs)
	for i > 0 && evs[i-1].Frame > ev.Frame {
		i--
	}
	evs = append(evs, QualityEvent{})
	copy(evs[i+1:], evs[i:])
	evs[i] = ev
	r.Quality.Events = evs
}

// finalizeQuality derives the per-coefficient error bars and the report
// tier from the recorded conditioning. degraded reports that the run
// gave up on part of the range (AllowDegraded) — the generator's private
// flag, which forces the report tier down regardless of the bars.
//
// The certified bar is the frame-conditioning model: the σ-classifier
// accepted coefficient i with quality q_i decimal digits above its
// validity threshold, so its relative error is ~10^(−σ−q_i) when the
// frame's error base held. CondLog10 measures how far the inverse
// transform's inputs exceeded that base (the Vandermonde-conditioning
// growth), and 3 decades of safety match the overlap cross-check
// tolerance (accept's 10^(3−σ)). A coefficient is certified when the bar
// stays within that same cross-check tolerance — i.e. its conditioning
// did not eat the measured quality margin — and the run saw no overlap
// disagreements; otherwise it is numeric.
func (r *Result) finalizeQuality(degraded bool) {
	certTol := math.Pow(10, float64(3-r.SigDigits))
	bars := make([]ErrorBar, len(r.Coeffs))
	tier := TierExact
	for i, c := range r.Coeffs {
		bar := ErrorBar{Tier: TierDegraded, Frame: c.Iteration}
		if c.Iteration >= 0 && c.Iteration < len(r.Iterations) {
			it := &r.Iterations[c.Iteration]
			bar.CondLog10, bar.DriftLog10, bar.Retries = it.CondLog10, it.DriftLog10, it.Attempt
		}
		switch c.Status {
		case Valid:
			switch {
			case c.Value.Zero():
				// Identically-zero polynomial: structurally zero, no error.
				bar.Tier = TierCertified
			default:
				rel := math.Pow(10, bar.CondLog10+float64(3-r.SigDigits)-c.Quality)
				if rel < relErrorFloor {
					rel = relErrorFloor
				}
				bar.RelError = rel
				if !degraded && r.Disagreements == 0 && rel <= certTol {
					bar.Tier = TierCertified
				} else {
					bar.Tier = TierNumeric
				}
			}
		case Negligible:
			if c.Structural() {
				// Outside the structural degree window: exactly zero.
				bar.Tier = TierExact
				break
			}
			// The bound is proven frame evidence; the value (zero) is
			// within it by construction.
			bar.Tier = TierCertified
		default:
			// Unknown: no estimate exists.
		}
		if bar.Tier < tier {
			tier = bar.Tier
		}
		bars[i] = bar
	}
	if degraded || len(bars) == 0 {
		tier = TierDegraded
	}
	r.Quality.Tier = tier
	r.Quality.Coefficients = bars
}

// Degraded reports that the result earned only the degraded tier:
// generation gave up on part of the coefficient range (under
// Config.AllowDegraded) or ended early with coefficients Unknown.
func (r *Result) Degraded() bool { return r.Quality.Tier == TierDegraded }

// ColdFallback returns the reason a requested warm start was refused or
// aborted ("" when no warm start was requested, or when it was taken —
// see WarmStarted). A non-empty value means this result was generated
// cold despite Config.WarmStart.
func (r *Result) ColdFallback() string {
	for _, e := range r.Quality.Events {
		if e.Kind == EventColdFallback {
			return e.Detail
		}
	}
	return ""
}

// Warnings lists the non-fatal diagnostics recorded during generation
// (e.g. an initial-scale heuristic that had to fall back to 1.0).
func (r *Result) Warnings() []string {
	var ws []string
	for _, e := range r.Quality.Events {
		if e.Kind == EventWarning {
			ws = append(ws, e.Detail)
		}
	}
	return ws
}

// Faults lists the fault events (the old failure log): every fault,
// retry and watchdog event observed during generation, in frame order.
func (r *Result) Faults() []QualityEvent {
	var fs []QualityEvent
	for _, e := range r.Quality.Events {
		if e.Kind == EventFault {
			fs = append(fs, e)
		}
	}
	return fs
}
