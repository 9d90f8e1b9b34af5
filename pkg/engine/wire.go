package engine

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/xmath"
)

// The wire format is the deterministic JSON rendering of generation
// results that the reference-generation service caches and serves.
// Extended-range coefficients spell as "<decimal mantissa>p<binary
// exponent>" strings (see internal/xmath: the mantissa is the shortest
// decimal that round-trips the float64 exactly), so a WireResult
// round-trips the xmath values bit for bit and the encoded bytes are
// identical on every host — the property that makes cached bodies
// shareable and the golden-file tests meaningful. Volatile run details
// (wall-clock timings, worker counts) are deliberately absent: the wire
// form is a function of circuit × spec × options alone.

// WireCoefficient is one network-function coefficient on the wire,
// carrying its accuracy certificate (tier + error bar) alongside the
// value.
type WireCoefficient struct {
	// Status is "valid", "negligible" or "unknown".
	Status string `json:"status"`
	// Value is the exact extended-range coefficient (valid only).
	Value string `json:"value,omitempty"`
	// Approx is a human-oriented 6-digit rendering of Value (or Bound);
	// display only, ignored on decode.
	Approx string `json:"approx,omitempty"`
	// Bound is the proven magnitude upper bound (negligible only).
	Bound string `json:"bound,omitempty"`
	// Quality is the digits above the validity threshold at acceptance.
	Quality float64 `json:"quality,omitempty"`
	// Iteration is the 0-based interpolation that resolved it (also the
	// error bar's provenance frame).
	Iteration int `json:"iteration"`
	// Tier is the coefficient's accuracy tier: "exact", "certified",
	// "numeric" or "degraded" (see core.Tier).
	Tier string `json:"tier"`
	// RelError is the certified relative-error estimate (0 for exact and
	// proven-negligible coefficients).
	RelError float64 `json:"rel_error,omitempty"`
	// CondLog10 and DriftLog10 are the resolving frame's condition
	// estimate and scale drift in decades (see core.ErrorBar).
	CondLog10  float64 `json:"cond_log10,omitempty"`
	DriftLog10 float64 `json:"drift_log10,omitempty"`
	// Retries is the retry-geometry attempt the resolving frame succeeded
	// with.
	Retries int `json:"retries,omitempty"`
}

// WireIteration summarizes one interpolation run for streaming clients:
// the deterministic geometry and bookkeeping of an Iteration without
// the coefficient window or timings.
type WireIteration struct {
	Purpose    string  `json:"purpose"`
	FScale     float64 `json:"fscale"`
	GScale     float64 `json:"gscale"`
	K          int     `json:"k"`
	Offset     int     `json:"offset"`
	Lo         int     `json:"lo"`
	Hi         int     `json:"hi"`
	NewValid   int     `json:"new_valid"`
	Revised    int     `json:"revised,omitempty"`
	Solves     int     `json:"solves"`
	Attempt    int     `json:"attempt,omitempty"`
	Negligible []int   `json:"negligible,omitempty"`
}

// WireQualityEvent is one QualityReport event on the wire. The typed
// error of fault events does not serialize; Detail carries its text.
type WireQualityEvent struct {
	Kind   string `json:"kind"`
	Frame  int    `json:"frame"`
	Target int    `json:"target"`
	Detail string `json:"detail"`
}

// WireResult is the wire form of one polynomial's Result.
type WireResult struct {
	Name       string  `json:"name"`
	Order      int     `json:"order"`
	M          int     `json:"m"`
	SigDigits  int     `json:"sig_digits"`
	SeedFScale float64 `json:"seed_fscale"`
	SeedGScale float64 `json:"seed_gscale"`
	// Tier is the result's quality tier, the minimum over the
	// coefficient tiers: "exact", "certified", "numeric" or "degraded".
	Tier string `json:"tier"`
	// Coeffs holds one entry per power of s, 0..OrderBound.
	Coeffs []WireCoefficient `json:"coeffs"`
	// Deterministic work counters (see Result).
	TotalSolves  int `json:"total_solves"`
	CacheHits    int `json:"cache_hits"`
	CacheMisses  int `json:"cache_misses"`
	FrameRetries int `json:"frame_retries,omitempty"`
	FailedFrames int `json:"failed_frames,omitempty"`
	// Events are the quality events (faults, warnings, fallbacks) in
	// frame order.
	Events     []WireQualityEvent `json:"events,omitempty"`
	Iterations []WireIteration    `json:"iterations,omitempty"`
}

// WireResponse is the wire form of a Response: the final payload of the
// generation service, and the unit the result cache stores.
type WireResponse struct {
	Backend string `json:"backend,omitempty"`
	// Tier is the response's quality tier: the minimum of the two
	// polynomials' tiers.
	Tier string      `json:"tier"`
	Num  *WireResult `json:"num,omitempty"`
	Den  *WireResult `json:"den,omitempty"`
}

// WorstRelError returns the largest per-coefficient relative error
// estimate across both polynomials of the response — the wire-level
// mirror of QualityReport.WorstRelError, computable from a cached body
// without decoding back to a Response.
func (w *WireResponse) WorstRelError() float64 {
	worst := 0.0
	for _, r := range []*WireResult{w.Num, w.Den} {
		if r == nil {
			continue
		}
		for _, c := range r.Coeffs {
			if c.RelError > worst {
				worst = c.RelError
			}
		}
	}
	return worst
}

// resultWire converts a Result to its wire form. The coefficient texts
// (Value, Bound, Approx) are written into texts, whose strings they are
// cut from, instead of one string each.
func resultWire(r *Result, texts *strings.Builder) *WireResult {
	if r == nil {
		return nil
	}
	w := &WireResult{
		Name:         r.Name,
		Order:        r.Order(),
		M:            r.M,
		SigDigits:    r.SigDigits,
		SeedFScale:   r.SeedFScale,
		SeedGScale:   r.SeedGScale,
		Tier:         r.Quality.Tier.String(),
		Coeffs:       make([]WireCoefficient, len(r.Coeffs)),
		TotalSolves:  r.TotalSolves,
		CacheHits:    r.CacheHits,
		CacheMisses:  r.CacheMisses,
		FrameRetries: r.FrameRetries,
		FailedFrames: r.FailedFrames,
	}
	for i, c := range r.Coeffs {
		wc := WireCoefficient{Status: c.Status.String(), Quality: c.Quality, Iteration: c.Iteration}
		if i < len(r.Quality.Coefficients) {
			bar := r.Quality.Coefficients[i]
			wc.Tier = bar.Tier.String()
			wc.RelError = bar.RelError
			wc.CondLog10 = bar.CondLog10
			wc.DriftLog10 = bar.DriftLog10
			wc.Retries = bar.Retries
		}
		switch c.Status {
		case Valid:
			wc.Value, wc.Approx = coefficientTexts(texts, c.Value)
		case Negligible:
			wc.Bound, wc.Approx = coefficientTexts(texts, c.Bound)
		}
		w.Coeffs[i] = wc
	}
	if len(r.Quality.Events) > 0 {
		w.Events = make([]WireQualityEvent, len(r.Quality.Events))
		for i, ev := range r.Quality.Events {
			w.Events[i] = WireQualityEvent{Kind: ev.Kind, Frame: ev.Frame, Target: ev.Target, Detail: ev.Detail}
		}
	}
	if len(r.Iterations) > 0 {
		w.Iterations = make([]WireIteration, len(r.Iterations))
		for i, it := range r.Iterations {
			w.Iterations[i] = IterationWire(it)
		}
	}
	return w
}

// coefficientTexts writes x's exact text and its 6-digit rendering into
// texts and returns both, cut from the builder's bytes. A builder never
// changes bytes it has written, so the strings stay valid as it grows.
func coefficientTexts(texts *strings.Builder, x xmath.XFloat) (exact, approx string) {
	start := texts.Len()
	var buf [64]byte
	b, err := x.AppendText(buf[:0])
	if err != nil {
		// AppendText on XFloat cannot fail; keep the signature honest.
		panic(err)
	}
	texts.Write(b)
	mid := texts.Len()
	texts.Write(x.AppendDigits(buf[:0], 6))
	all := texts.String()
	return all[start:mid], all[mid:]
}

// textsBound bounds the bytes coefficientTexts writes for r: an exact
// text is at most a 19-byte mantissa, 'p' and the binary exponent, and
// its rendering at most 11 bytes and the decimal exponent, which is no
// longer than the binary one. NaN and ±Inf (exponent 0) spell in at most
// 30 bytes, the 20-digit decimal exponent of their rendering included.
// A short bound would only cost the builder a regrowth.
func textsBound(r *Result) int {
	if r == nil {
		return 0
	}
	n := 0
	for _, c := range r.Coeffs {
		var x xmath.XFloat
		switch c.Status {
		case Valid:
			x = c.Value
		case Negligible:
			x = c.Bound
		default:
			continue
		}
		n += 32 + 2*intLen(int(x.Exp()))
	}
	return n
}

// IterationWire converts one Iteration to the summary streamed to
// service clients.
func IterationWire(it Iteration) WireIteration {
	return WireIteration{
		Purpose: it.Purpose, FScale: it.FScale, GScale: it.GScale,
		K: it.K, Offset: it.Offset, Lo: it.Lo, Hi: it.Hi,
		NewValid: it.NewValid, Revised: it.Revised, Solves: it.Solves,
		Attempt: it.Attempt, Negligible: it.Negligible,
	}
}

// ResponseWire converts a Response to its wire form.
func ResponseWire(resp *Response) *WireResponse {
	if resp == nil {
		return nil
	}
	var texts strings.Builder
	texts.Grow(textsBound(resp.Num) + textsBound(resp.Den))
	w := &WireResponse{Num: resultWire(resp.Num, &texts), Den: resultWire(resp.Den, &texts), Tier: resp.Tier().String()}
	if resp.Formulation != nil {
		w.Backend = resp.Formulation.Backend
	}
	return w
}

// Result converts the wire form back. Coefficient values, bounds, error
// bars, events and every deterministic counter reconstruct exactly; the
// full Iteration records (coefficient windows, timings) are not on the
// wire, so the returned Result carries none, and the typed errors of
// fault events survive only as their Detail text (QualityEvent.Err is
// nil after decode).
func (w *WireResult) Result() (*Result, error) {
	tier, err := core.ParseTier(w.Tier)
	if err != nil {
		return nil, fmt.Errorf("engine: wire result %q: %w", w.Name, err)
	}
	r := &Result{
		Name:         w.Name,
		M:            w.M,
		SigDigits:    w.SigDigits,
		SeedFScale:   w.SeedFScale,
		SeedGScale:   w.SeedGScale,
		Coeffs:       make([]Coefficient, len(w.Coeffs)),
		TotalSolves:  w.TotalSolves,
		CacheHits:    w.CacheHits,
		CacheMisses:  w.CacheMisses,
		FrameRetries: w.FrameRetries,
		FailedFrames: w.FailedFrames,
	}
	r.Quality.Tier = tier
	r.Quality.Coefficients = make([]ErrorBar, len(w.Coeffs))
	for i, wc := range w.Coeffs {
		c := Coefficient{Quality: wc.Quality, Iteration: wc.Iteration}
		switch wc.Status {
		case "valid":
			c.Status = Valid
			if err := parseXFloat(&c.Value, wc.Value, i, "value"); err != nil {
				return nil, err
			}
		case "negligible":
			c.Status = Negligible
			if err := parseXFloat(&c.Bound, wc.Bound, i, "bound"); err != nil {
				return nil, err
			}
		case "unknown":
			c.Status = Unknown
		default:
			return nil, fmt.Errorf("engine: wire coefficient s^%d has unknown status %q", i, wc.Status)
		}
		r.Coeffs[i] = c
		barTier, err := core.ParseTier(wc.Tier)
		if err != nil {
			return nil, fmt.Errorf("engine: wire coefficient s^%d: %w", i, err)
		}
		r.Quality.Coefficients[i] = ErrorBar{
			Tier:       barTier,
			RelError:   wc.RelError,
			CondLog10:  wc.CondLog10,
			DriftLog10: wc.DriftLog10,
			Retries:    wc.Retries,
			Frame:      wc.Iteration,
		}
	}
	for _, ev := range w.Events {
		r.Quality.Events = append(r.Quality.Events, QualityEvent{
			Kind: ev.Kind, Frame: ev.Frame, Target: ev.Target, Detail: ev.Detail,
		})
	}
	return r, nil
}

// EncodeResponseJSON renders the wire form of a response with the
// stable indented layout the golden-file tests pin byte for byte.
func EncodeResponseJSON(resp *Response) ([]byte, error) {
	return EncodeWireJSON(ResponseWire(resp))
}

// EncodeWireJSON renders an already-converted wire response with the
// same stable layout as EncodeResponseJSON.
func EncodeWireJSON(w *WireResponse) ([]byte, error) {
	if w == nil {
		return []byte("null\n"), nil
	}
	e := wireEncoder{sizing: true}
	e.response(w)
	if e.err != nil {
		return nil, e.err
	}
	e.sizing, e.buf = false, make([]byte, 0, e.n+1)
	e.response(w)
	return append(e.buf, '\n'), nil
}

// DecodeResponseJSON parses an encoded wire response and reconstructs
// the Results (see WireResult.Result for what reconstructs).
func DecodeResponseJSON(raw []byte) (*WireResponse, *Result, *Result, error) {
	var w WireResponse
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, nil, nil, fmt.Errorf("engine: wire response: %w", err)
	}
	var num, den *Result
	if w.Num != nil {
		r, err := w.Num.Result()
		if err != nil {
			return nil, nil, nil, err
		}
		num = r
	}
	if w.Den != nil {
		r, err := w.Den.Result()
		if err != nil {
			return nil, nil, nil, err
		}
		den = r
	}
	return &w, num, den, nil
}

func parseXFloat(dst *xmath.XFloat, s string, i int, what string) error {
	if s == "" {
		return fmt.Errorf("engine: wire coefficient s^%d is missing its %s", i, what)
	}
	if err := dst.UnmarshalText([]byte(s)); err != nil {
		return fmt.Errorf("engine: wire coefficient s^%d: %w", i, err)
	}
	return nil
}
