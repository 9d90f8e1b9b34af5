package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/interp"
)

// Config controls the generator. The zero value is usable: it selects the
// paper's parameters (σ = 6, r = 0, reduction on). It is the one option
// list of the system: the json tags are the HTTP wire names (hooks,
// budgets, warm-start state and ablation switches never travel),
// Normalize resolves every default, and Key renders what is hashed.
type Config struct {
	// SigDigits is σ, the number of significant digits required of every
	// coefficient (paper §3.2 uses 6). 0 selects 6; at most MaxSigDigits.
	SigDigits int `json:"sig_digits,omitempty"`
	// TuningR is the tuning factor r of eqs. (14)–(15); 0 aims each new
	// region to start exactly where the previous one ended. Negative
	// values increase region overlap (more conservative), positive values
	// risk gaps.
	TuningR float64 `json:"tuning_r,omitempty"`
	// MaxIterations bounds the total number of interpolations. 0 selects 64.
	MaxIterations int `json:"max_iterations,omitempty"`
	// NoReduce disables the problem-size reduction of eq. (17); every
	// interpolation then uses the full n+1 points. For ablation studies.
	NoReduce bool `json:"-"`
	// StallLimit is the number of consecutive aimed interpolations (plus
	// repairs) that may fail to resolve a target coefficient before it is
	// classified Negligible. 0 selects 3.
	StallLimit int `json:"stall_limit,omitempty"`
	// InitFScale and InitGScale seed the first interpolation; a non-zero
	// seed must be positive and finite. 0 selects the paper's heuristic
	// (inverse mean capacitance / conductance) in GenerateTransferFunction
	// and 1 in Generate.
	InitFScale float64 `json:"init_fscale,omitempty"`
	InitGScale float64 `json:"init_gscale,omitempty"`
	// SingleFactor disables the simultaneous √q split of eq. (13) and
	// puts the whole scale jump into the frequency factor — the naive
	// strategy the paper's §3.2 warns about. For ablation studies, and
	// forced on for frequency-only formulations (MNA).
	SingleFactor bool `json:"-"`
	// Parallelism is the worker count for batched point evaluation:
	// 0 selects GOMAXPROCS, 1 forces the serial path (also the fallback
	// when the evaluator has no EvalBatch). 1 also keeps the numerator
	// and denominator passes of GenerateTransferFunction sequential;
	// any other value lets passes without a joint cache overlap. Results
	// are bit-identical across settings — evaluators are required to
	// make each point a pure function of the point and the (serially
	// primed) shared factorization plan, so parallelism affects wall
	// clock only.
	Parallelism int `json:"parallelism,omitempty"`
	// NoMirror disables the Hermitian half-circle scheme: every
	// interpolation then evaluates all K points instead of the ⌊K/2⌋+1
	// non-redundant ones. The coefficients are bit-identical, the solve
	// counts are not. For ablation benchmarks and measurements.
	NoMirror bool `json:"-"`
	// NoJoint disables the shared numerator/denominator evaluation cache
	// in GenerateTransferFunction even when the transfer function
	// provides a joint form. For ablation benchmarks and differential
	// checks.
	NoJoint bool `json:"-"`
	// Observer, when non-nil, is invoked after every completed
	// interpolation with the Iteration just recorded. Calls are
	// serialized, never concurrent, and in GenerateTransferFunction every
	// numerator iteration comes before any denominator iteration. They
	// do not always run on the caller's goroutine: an overlapped
	// denominator pass (see Parallelism) delivers its iterations from
	// its own goroutine, the ones completed before the numerator pass
	// returned in one burst. Keep it fast and treat the Iteration
	// (including its slices) as read-only.
	Observer func(Iteration) `json:"-"`
	// FrameRetries is the number of times a frame whose point evaluation
	// produced a non-finite (singular) value is retried with perturbed
	// geometry before the frame is declared failed. Each retry bumps the
	// point count to the next odd value (rotating every evaluation angle)
	// and odd-numbered retries additionally negate the points (a
	// half-step rotation), so a pole sitting on an evaluation angle is
	// stepped around deterministically. 0 selects 2; negative disables
	// retries.
	FrameRetries int `json:"frame_retries,omitempty"`
	// AllowDegraded converts generation-ending failures (frames that
	// exhaust their retries, watchdog trips, iteration-budget exhaustion)
	// into a degraded partial Result: Generate returns a nil error, the
	// Result's quality tier is TierDegraded with the fault events in
	// Result.Quality.Events, and the affected coefficients stay Unknown.
	// Context cancellation still returns an error. Off by default:
	// failures surface as the typed errors of the taxonomy in errors.go.
	AllowDegraded bool `json:"allow_degraded,omitempty"`
	// WatchdogStall is M, the number of consecutive completed frames that
	// resolve no coefficient before the stall watchdog declares the run
	// stuck (ErrStall). 0 selects 4×StallLimit (12 by default): the
	// per-target stall escape classifies a target Negligible after
	// StallLimit consecutive misses, so a healthy run advances at least
	// every StallLimit frames and can never trip the default watchdog.
	// Negative disables it.
	WatchdogStall int `json:"watchdog_stall,omitempty"`
	// MaxScaleDriftLog10 bounds the decade drift max(|log10(f/f0)|,
	// |log10(g/g0)|) of every proposed scale pair against the seed pair —
	// the same invariant internal/check enforces post-hoc
	// (check.Options.MaxScaleLog10). A proposal beyond the bound trips
	// the divergence watchdog (ErrScaleDivergence); a non-finite or
	// non-positive proposal always trips it regardless of the bound. 0
	// selects 18 decades (the paper's "too large" threshold) for the
	// two-factor policy and no bound under SingleFactor, which §3.2
	// documents as exceeding it by design; negative disables the bound.
	MaxScaleDriftLog10 float64 `json:"max_scale_drift_log10,omitempty"`
	// WarmStart, when non-nil, carries the converged schedules of a prior
	// generation on a neighboring design point (see Result.Schedule). The
	// run replays the matching schedule instead of rediscovering the
	// scale sequence, and falls back to a full cold start — reason in
	// Result.ColdFallback() — when the schedule fails pre-validation
	// (degraded prior, window or precision mismatch, drift past
	// MaxScaleDriftLog10) or its frames fail mid-replay.
	WarmStart *WarmStart `json:"-"`
	// MaxSolves bounds the total number of evaluation-point solves across
	// all frames of one polynomial (Result.TotalSolves). The bound is
	// checked before each frame dispatches its batch: a frame that would
	// cross it trips ErrIterationBudget (a *BudgetError with Kind
	// "solves") without performing any of its solves. 0 disables the
	// bound. Unlike MaxIterations this is an execution-side budget —
	// excluded from Key, so a server can clamp it per request without
	// changing request identity.
	MaxSolves int `json:"-"`
	// MemoryBudget is a soft ceiling, in bytes, on the generator's
	// cumulative arena estimate (Result.EstimatedBytes): evaluation
	// points, solved extended-range values and one factorization plan
	// per frame. A frame whose estimate would cross the ceiling trips
	// ErrIterationBudget (a *BudgetError with Kind "bytes") before
	// dispatching any solves. 0 disables the ceiling. Execution-only
	// like MaxSolves.
	MemoryBudget int64 `json:"-"`
	// DegradeOnBudget converts budget exhaustion — and only budget
	// exhaustion (failures matching ErrIterationBudget) — into a
	// degraded partial Result, exactly as AllowDegraded does for the
	// whole taxonomy. Servers use it to turn an enforced resource
	// budget into a labeled partial answer under the tier contract
	// without masking genuine generation failures.
	DegradeOnBudget bool `json:"-"`
	// ExactRecovery requests the engine-level opt-in recovery pass that
	// snaps certified coefficients to rationals and verifies them against
	// the exact-arithmetic oracle, upgrading them to TierExact. The core
	// generator ignores it (it has no oracle); it lives here so it is
	// part of the one option set engine callers key and serialize.
	ExactRecovery bool `json:"exact_recovery,omitempty"`
}

// MaxSigDigits is the largest accepted σ: one decade above the
// interpolation's noise floor (interp.NoiseExp). A larger σ leaves no
// coefficient above the floor, so nothing could be certified.
const MaxSigDigits = -interp.NoiseExp - 1

// ErrBadOptions marks a Config that Normalize refuses. Details in
// *OptionError. It is a request error, not part of the generation
// taxonomy: no frame runs, and AllowDegraded does not convert it.
var ErrBadOptions = errors.New("invalid options")

// OptionError names one refused setting: its json tag, the refused
// value and the accepted range.
type OptionError struct {
	Field string
	Value any
	Want  string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("core: invalid option %s = %v: want %s", e.Field, e.Value, e.Want)
}

func (e *OptionError) Unwrap() error { return ErrBadOptions }

// Normalize returns the configuration the generator runs: every "0
// selects a default" field resolved, every "negative disables" field
// folded to −1, and −0 folded to 0, so two spellings of one meaning
// normalize to the same value. Normalize is idempotent. The seed scales
// stay 0 when omitted, because their default depends on the entry point
// (see InitFScale). Out-of-range settings are refused with an
// *OptionError before anything runs.
//
// A frequency-only caller sets SingleFactor before normalizing: the
// drift-bound default depends on it.
func (cfg Config) Normalize() (Config, error) {
	switch {
	case cfg.SigDigits < 0 || cfg.SigDigits > MaxSigDigits:
		return cfg, &OptionError{"sig_digits", cfg.SigDigits, fmt.Sprintf("0 (default 6) to %d", MaxSigDigits)}
	case math.IsNaN(cfg.TuningR) || math.IsInf(cfg.TuningR, 0):
		return cfg, &OptionError{"tuning_r", cfg.TuningR, "a finite number"}
	case cfg.MaxIterations < 0:
		return cfg, &OptionError{"max_iterations", cfg.MaxIterations, "0 (default 64) or more"}
	case cfg.StallLimit < 0:
		return cfg, &OptionError{"stall_limit", cfg.StallLimit, "0 (default 3) or more"}
	case badSeed(cfg.InitFScale):
		return cfg, &OptionError{"init_fscale", cfg.InitFScale, "0 (heuristic) or a positive finite number"}
	case badSeed(cfg.InitGScale):
		return cfg, &OptionError{"init_gscale", cfg.InitGScale, "0 (heuristic) or a positive finite number"}
	case math.IsNaN(cfg.MaxScaleDriftLog10):
		return cfg, &OptionError{"max_scale_drift_log10", cfg.MaxScaleDriftLog10, "a number"}
	case cfg.Parallelism < 0:
		return cfg, &OptionError{"parallelism", cfg.Parallelism, "0 (GOMAXPROCS) or more"}
	}
	if cfg.SigDigits == 0 {
		cfg.SigDigits = 6
	}
	if cfg.MaxIterations == 0 {
		cfg.MaxIterations = 64
	}
	if cfg.StallLimit == 0 {
		cfg.StallLimit = 3
	}
	// Adding +0 folds −0 to +0 and leaves every other value alone.
	cfg.TuningR += 0
	cfg.InitFScale += 0
	cfg.InitGScale += 0
	if cfg.FrameRetries == 0 {
		cfg.FrameRetries = 2
	}
	if cfg.WatchdogStall == 0 {
		cfg.WatchdogStall = 4 * cfg.StallLimit
	}
	if cfg.MaxScaleDriftLog10 == 0 && !cfg.SingleFactor {
		cfg.MaxScaleDriftLog10 = 18
	}
	// What is left non-positive disables: one spelling, −1.
	cfg.FrameRetries = max(cfg.FrameRetries, -1)
	cfg.WatchdogStall = max(cfg.WatchdogStall, -1)
	if cfg.MaxScaleDriftLog10 <= 0 {
		cfg.MaxScaleDriftLog10 = -1 // no bound (finiteness still enforced)
	}
	return cfg, nil
}

func badSeed(s float64) bool {
	return s != 0 && !(s > 0 && s <= math.MaxFloat64)
}

// retries is the number of frame retries a normalized Config allows.
func (cfg Config) retries() int { return max(cfg.FrameRetries, 0) }

// Key renders the result fields of a normalized Config: every field that
// can change a generated body — the result settings and the ablation
// switches — and none of the execution-only ones (Parallelism, the
// budgets, the hooks, WarmStart, which replays to bit-identical
// coefficients or falls back cold). %v renders a float in its shortest
// round-tripping form, so distinct values never collide and equal
// values never split.
func (cfg Config) Key() string {
	return fmt.Sprintf("sig:%d|r:%v|maxit:%d|noreduce:%t|stall:%d|f0:%v|g0:%v|single:%t|nomirror:%t|nojoint:%t|retries:%d|degraded:%t|watchdog:%d|drift:%v|exactrec:%t",
		cfg.SigDigits, cfg.TuningR, cfg.MaxIterations, cfg.NoReduce, cfg.StallLimit, cfg.InitFScale, cfg.InitGScale,
		cfg.SingleFactor, cfg.NoMirror, cfg.NoJoint, cfg.FrameRetries, cfg.AllowDegraded, cfg.WatchdogStall,
		cfg.MaxScaleDriftLog10, cfg.ExactRecovery)
}
