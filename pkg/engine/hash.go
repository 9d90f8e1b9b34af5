package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/netlist"
)

// CanonicalKey returns the content address of a generation request: the
// hex SHA-256 of the canonical netlist form (order-, whitespace-,
// comment-, name- and value-spelling-invariant; see
// netlist.CanonicalString) combined with the backend name, the Spec and
// the result fields of the normalized Options (Options.Key). Two
// requests share a key exactly when the engine runs the same normalized
// settings on the same circuit, which is what makes the key safe to use
// for result caching and single-flight deduplication. Options the
// engine refuses return an error matching ErrBadOptions.
func CanonicalKey(backend string, c *Circuit, spec Spec, opts Options) (string, error) {
	norm, err := normalize(opts, frequencyOnly(backend, spec))
	if err != nil {
		return "", err
	}
	canon, err := netlist.CanonicalString(c)
	if err != nil {
		return "", fmt.Errorf("engine: canonical key: %w", err)
	}
	// An omitted seed is keyed as the value generation runs.
	norm = pinSeeds(norm, c)
	h := sha256.New()
	f := specField.Replace
	fmt.Fprintf(h, "refkey v4\nbackend %s\nspec %s|%s|%s|%s\nopts %s\n",
		backend, f(spec.Kind), f(spec.In), f(spec.Inn), f(spec.Out), norm.Key())
	h.Write([]byte(canon))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// specField escapes a Spec field for the key's spec line, whose fields
// are joined by '|': node names may hold '|' (and, through the API, a
// backslash or a newline), so that two different Specs cannot spell one
// line. A field without those characters keeps its text.
var specField = strings.NewReplacer(`\`, `\\`, "|", `\|`, "\n", `\n`)

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
		backend = autoBackend(req.Spec)
	}
	return CanonicalKey(backend, req.Circuit, req.Spec, opts)
}
