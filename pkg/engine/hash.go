package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/netlist"
)

// CanonicalKey returns the content address of a generation request: the
// hex SHA-256 of the canonical netlist form (order-, whitespace-,
// comment-, name- and value-spelling-invariant; see
// netlist.CanonicalString) combined with the backend name, the Spec and
// the result-relevant Options. Two requests share a key exactly when
// the engine is guaranteed to produce bit-identical results for them,
// which is what makes the key safe to use for result caching and
// single-flight deduplication.
//
// Execution-only options — Parallelism, RetryBackoff, Observer,
// OnFailure — are excluded: they change wall clock, not results.
// WarmStart is excluded too (warm-started runs replay to bit-identical
// coefficients or fall back to the cold schedule), so warm and cold
// runs of the same request share an address.
func CanonicalKey(backend string, c *Circuit, spec Spec, opts Options) (string, error) {
	canon, err := netlist.CanonicalString(c)
	if err != nil {
		return "", fmt.Errorf("engine: canonical key: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "refkey v2\nbackend %s\nspec %s|%s|%s|%s\nopts %s\n",
		backend, spec.Kind, spec.In, spec.Inn, spec.Out, optionsKey(opts))
	h.Write([]byte(canon))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// RequestKey is CanonicalKey applied to a Request against an engine's
// configuration: a nil Request.Options falls back to cfg.Options, and
// an empty cfg.Backend resolves the same way Generate does (the "mna"
// Spec kind selects the mna backend, everything else the nodal
// backend), so the key matches what generation will actually run.
func RequestKey(req Request, cfg Config) (string, error) {
	opts := cfg.Options
	if req.Options != nil {
		opts = *req.Options
	}
	backend := cfg.Backend
	if backend == "" {
		if req.Spec.Kind == "mna" {
			backend = "mna"
		} else {
			backend = "nodal"
		}
	}
	return CanonicalKey(backend, req.Circuit, req.Spec, opts)
}

// optionsKey renders the result-relevant Options deterministically.
// Floats use strconv's shortest round-tripping form, so distinct values
// never collide and equal values never split.
func optionsKey(o Options) string {
	var b strings.Builder
	itoa := func(name string, v int) {
		b.WriteString(name)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(v))
		b.WriteByte('|')
	}
	ftoa := func(name string, v float64) {
		b.WriteString(name)
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		b.WriteByte('|')
	}
	btoa := func(name string, v bool) {
		b.WriteString(name)
		b.WriteByte(':')
		b.WriteString(strconv.FormatBool(v))
		b.WriteByte('|')
	}
	itoa("sig", o.SigDigits)
	ftoa("r", o.TuningR)
	itoa("maxit", o.MaxIterations)
	btoa("noreduce", o.NoReduce)
	itoa("stall", o.StallLimit)
	ftoa("f0", o.InitFScale)
	ftoa("g0", o.InitGScale)
	btoa("single", o.SingleFactor)
	btoa("nomirror", o.NoMirror)
	btoa("nojoint", o.NoJoint)
	itoa("retries", o.FrameRetries)
	btoa("degraded", o.AllowDegraded)
	itoa("watchdog", o.WatchdogStall)
	ftoa("drift", o.MaxScaleDriftLog10)
	btoa("exactrec", o.ExactRecovery)
	return strings.TrimSuffix(b.String(), "|")
}
