package engine

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/xmath"
)

// The schedule wire format is the versioned, deterministic JSON
// rendering of converged scale schedules (core.Schedule) that the
// persistent schedule store saves and loads. Scale factors spell in the
// xmath extended-range text form "<decimal mantissa>p<binary exponent>"
// — the shortest decimal that round-trips the float64 exactly — so a
// stored schedule replays with bit-identical scale pairs on any host,
// which is what makes warm-start-from-disk reproduce the in-process
// warm-start results exactly. The envelope carries the format version
// and the content address the schedule was converged under; the store
// refuses both mismatches (see ScheduleStore.Load).

// ScheduleWireVersion is the current schedule envelope format version.
// Bump it on any incompatible change; stored files with a different
// version are ignored (cold start), never misread.
const ScheduleWireVersion = 2

// WireScheduleFrame is one contributing frame on the wire.
type WireScheduleFrame struct {
	// FScale and GScale are the frame's scale pair in xmath text form.
	FScale string `json:"fscale"`
	GScale string `json:"gscale"`
	// Purpose labels the frame ("initial", "up", "down", "repair").
	Purpose string `json:"purpose"`
	// Attempt is the retry-geometry index the frame succeeded with.
	Attempt int `json:"attempt,omitempty"`
	// Negligible lists the targets this frame's evidence classified.
	Negligible []int `json:"negligible,omitempty"`
}

// WireSchedule is the wire form of one polynomial's Schedule.
type WireSchedule struct {
	Name       string `json:"name"`
	M          int    `json:"m"`
	OrderBound int    `json:"order"`
	SigDigits  int    `json:"sig_digits"`
	// SeedFScale and SeedGScale are the recorded run's initial scale
	// pair, in xmath text form.
	SeedFScale string `json:"seed_fscale"`
	SeedGScale string `json:"seed_gscale"`
	// Degraded marks a schedule extracted from a degraded result. The
	// store never replays one, but the flag is kept on the wire so the
	// provenance survives a round trip.
	Degraded bool                `json:"degraded,omitempty"`
	Frames   []WireScheduleFrame `json:"frames"`
}

// WireWarmStart is the stored envelope: format version, the content
// address (engine.CanonicalKey) the schedules converged under, and the
// per-polynomial schedules.
type WireWarmStart struct {
	Version int           `json:"version"`
	Key     string        `json:"key"`
	Num     *WireSchedule `json:"num,omitempty"`
	Den     *WireSchedule `json:"den,omitempty"`
}

// scaleText renders a scale factor in the exact xmath text form.
// Non-finite scales have no representation (FromFloat panics), so they
// are rejected here — a schedule carrying one is corrupt.
func scaleText(v float64) (string, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "", fmt.Errorf("engine: schedule scale %v is not representable", v)
	}
	return xfloatText(xmath.FromFloat(v)), nil
}

// parseScale inverts scaleText bit-exactly. The xmath text form spells
// a wider range than float64 (the extended exponent), so values that
// would saturate or underflow in the conversion — anything scaleText
// cannot have produced — are rejected rather than silently collapsed
// to ±Inf or 0.
func parseScale(s, what string) (float64, error) {
	var x xmath.XFloat
	if err := x.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("engine: schedule %s: %w", what, err)
	}
	f := x.Float64()
	if math.IsInf(f, 0) || math.IsNaN(f) || xmath.FromFloat(f) != x {
		return 0, fmt.Errorf("engine: schedule %s: %q is outside exact float64 range", what, s)
	}
	return f, nil
}

// scheduleWire converts a Schedule to its wire form.
func scheduleWire(s *Schedule) (*WireSchedule, error) {
	if s == nil {
		return nil, nil
	}
	w := &WireSchedule{
		Name:       s.Name,
		M:          s.M,
		OrderBound: s.OrderBound,
		SigDigits:  s.SigDigits,
		Degraded:   s.Degraded,
	}
	var err error
	if w.SeedFScale, err = scaleText(s.SeedFScale); err != nil {
		return nil, err
	}
	if w.SeedGScale, err = scaleText(s.SeedGScale); err != nil {
		return nil, err
	}
	for _, fr := range s.Frames {
		wf := WireScheduleFrame{Purpose: fr.Purpose, Attempt: fr.Attempt}
		if wf.FScale, err = scaleText(fr.FScale); err != nil {
			return nil, err
		}
		if wf.GScale, err = scaleText(fr.GScale); err != nil {
			return nil, err
		}
		if len(fr.Negligible) > 0 {
			wf.Negligible = append([]int(nil), fr.Negligible...)
		}
		w.Frames = append(w.Frames, wf)
	}
	return w, nil
}

// Schedule converts the wire form back. Scale factors reconstruct bit
// for bit (see scaleText); missing or malformed scale strings are
// errors, never zero scales — a zero would replay as a singular frame.
func (w *WireSchedule) Schedule() (*Schedule, error) {
	if w == nil {
		return nil, nil
	}
	s := &Schedule{
		Name:       w.Name,
		M:          w.M,
		OrderBound: w.OrderBound,
		SigDigits:  w.SigDigits,
		Degraded:   w.Degraded,
	}
	var err error
	if s.SeedFScale, err = parseScale(w.SeedFScale, "seed fscale"); err != nil {
		return nil, err
	}
	if s.SeedGScale, err = parseScale(w.SeedGScale, "seed gscale"); err != nil {
		return nil, err
	}
	for i, wf := range w.Frames {
		fr := ScheduleFrame{Purpose: wf.Purpose, Attempt: wf.Attempt}
		what := fmt.Sprintf("frame %d", i)
		if fr.FScale, err = parseScale(wf.FScale, what+" fscale"); err != nil {
			return nil, err
		}
		if fr.GScale, err = parseScale(wf.GScale, what+" gscale"); err != nil {
			return nil, err
		}
		if len(wf.Negligible) > 0 {
			fr.Negligible = append([]int(nil), wf.Negligible...)
		}
		s.Frames = append(s.Frames, fr)
	}
	return s, nil
}

// EncodeWarmStartJSON renders the stored schedule envelope for a warm
// start under the given content address, with the same stable indented
// layout as the result wire format (golden-file pinned).
func EncodeWarmStartJSON(key string, ws *WarmStart) ([]byte, error) {
	if ws == nil || (ws.Num == nil && ws.Den == nil) {
		return nil, fmt.Errorf("engine: no schedules to encode")
	}
	w := &WireWarmStart{Version: ScheduleWireVersion, Key: key}
	var err error
	if w.Num, err = scheduleWire(ws.Num); err != nil {
		return nil, err
	}
	if w.Den, err = scheduleWire(ws.Den); err != nil {
		return nil, err
	}
	raw, err := json.MarshalIndent(w, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// DecodeWarmStartJSON parses a stored schedule envelope. It validates
// the JSON shape and the scale encodings; envelope-level acceptance
// (version, key, provenance) is the store's job, so callers can report
// the precise refusal reason.
func DecodeWarmStartJSON(raw []byte) (*WireWarmStart, *WarmStart, error) {
	var w WireWarmStart
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, nil, fmt.Errorf("engine: schedule envelope: %w", err)
	}
	num, err := w.Num.Schedule()
	if err != nil {
		return nil, nil, err
	}
	den, err := w.Den.Schedule()
	if err != nil {
		return nil, nil, err
	}
	if num == nil && den == nil {
		return nil, nil, fmt.Errorf("engine: schedule envelope carries no schedules")
	}
	return &w, &WarmStart{Num: num, Den: den}, nil
}
