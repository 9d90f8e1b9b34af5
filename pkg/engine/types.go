package engine

import (
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/netlist"
	"repro/internal/poly"
)

// The engine re-exports the pipeline's data types as aliases so callers
// can hold circuits, generation results and transfer functions without
// importing the internal packages that produce them. An engine.Result IS
// a core result: helper packages that operate on the internal types
// accept engine values unchanged.
type (
	// Circuit is a parsed circuit (see LoadNetlist, ParseNetlist).
	Circuit = circuit.Circuit
	// Element is one circuit element.
	Element = circuit.Element
	// Options configures reference generation (σ, tuning factor,
	// parallelism, ablation switches, per-iteration Observer, ...). The
	// zero value selects the paper's parameters.
	Options = core.Config
	// Result is the generated numerical reference for one polynomial.
	Result = core.Result
	// Coefficient is one resolved coefficient of a Result.
	Coefficient = core.Coefficient
	// Iteration records one interpolation run; it is the payload of the
	// per-iteration observer hook.
	Iteration = core.Iteration
	// Status classifies a Coefficient (Unknown, Valid, Negligible).
	Status = core.Status
	// TransferFunction bundles the numerator and denominator evaluators
	// of H(s) = N(s)/D(s), as produced by a Backend.
	TransferFunction = interp.TransferFunction
	// Evaluator evaluates one polynomial at scaled interpolation points.
	Evaluator = interp.Evaluator
	// InterpResult is the outcome of one fixed-scale interpolation (see
	// Engine.Interpolate).
	InterpResult = interp.Result
	// Poly is a polynomial with extended-range coefficients.
	Poly = poly.XPoly
	// QualityReport is the unified quality-of-result contract attached to
	// every Result: the earned tier, one error bar per coefficient, and
	// the events observed during generation.
	QualityReport = core.QualityReport
	// ErrorBar is the per-coefficient accuracy certificate of a
	// QualityReport.
	ErrorBar = core.ErrorBar
	// QualityEvent is one fault, warning or fallback event of a
	// QualityReport.
	QualityEvent = core.QualityEvent
	// Tier grades how much trust a result or coefficient has earned
	// (TierDegraded < TierNumeric < TierCertified < TierExact).
	Tier = core.Tier
	// WarmStart carries the per-polynomial schedules of a prior
	// generation for Options.WarmStart (see Response.WarmState and
	// GenerateBatch).
	WarmStart = core.WarmStart
	// Schedule is the replayable distillation of one polynomial's
	// converged generation (see Result.Schedule).
	Schedule = core.Schedule
	// ScheduleFrame is one contributing frame of a Schedule.
	ScheduleFrame = core.ScheduleFrame
	// SingularPointError details one failed (non-finite) point solve.
	SingularPointError = core.SingularPointError
	// FrameError details an interpolation frame that failed every retry.
	FrameError = core.FrameError
	// StallError details a stall-watchdog trip.
	StallError = core.StallError
	// ScaleDivergenceError details a divergence-watchdog trip.
	ScaleDivergenceError = core.ScaleDivergenceError
	// BudgetError details iteration-budget exhaustion.
	BudgetError = core.BudgetError
)

// The generation-failure taxonomy, re-exported from the core: every
// failure Generate can diagnose matches exactly one of these with
// errors.Is (and carries a concrete *...Error with diagnostics for
// errors.As). Under Options.AllowDegraded the same failures become a
// degraded-tier partial Result instead — see Response.Degraded()
// and the QualityReport on each Result. ErrBadOptions is the request
// error for options outside their range; it fails before any solve.
var (
	ErrBadOptions      = core.ErrBadOptions
	ErrSingularPoint   = core.ErrSingularPoint
	ErrFrameFailed     = core.ErrFrameFailed
	ErrStall           = core.ErrStall
	ErrScaleDivergence = core.ErrScaleDivergence
	ErrIterationBudget = core.ErrIterationBudget
)

// Coefficient states.
const (
	Unknown    = core.Unknown
	Valid      = core.Valid
	Negligible = core.Negligible
)

// Quality tiers, ordered weakest to strongest.
const (
	TierDegraded  = core.TierDegraded
	TierNumeric   = core.TierNumeric
	TierCertified = core.TierCertified
	TierExact     = core.TierExact
)

// Quality-event kinds.
const (
	EventFault         = core.EventFault
	EventWarning       = core.EventWarning
	EventColdFallback  = core.EventColdFallback
	EventExactRecovery = core.EventExactRecovery
)

// ParseTier parses a tier name ("exact", "certified", "numeric",
// "degraded") back into a Tier.
func ParseTier(s string) (Tier, error) { return core.ParseTier(s) }

// ValidRegion locates the contiguous run of normalized coefficients
// carrying at least sigDigits significant digits in an InterpResult.
func ValidRegion(normalized Poly, sigDigits int) (lo, hi int, ok bool) {
	return interp.ValidRegion(normalized, sigDigits)
}

// LoadNetlist parses a SPICE-like netlist file into a circuit.
func LoadNetlist(path string) (*Circuit, error) {
	return netlist.ParseFile(path)
}

// ParseNetlist parses netlist source text into a circuit; name labels
// the source in error messages.
func ParseNetlist(src, name string) (*Circuit, error) {
	return netlist.ParseString(src, name)
}
