package engine

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// wireEncoder renders a WireResponse as the bytes encoding/json's
// MarshalIndent(w, "", "  ") produces — the same member order, omitempty
// rules, float spelling, string escaping (HTML-safe, U+2028/U+2029
// escaped, invalid UTF-8 replaced by U+FFFD) and NaN/±Inf refusal —
// without reflection. It runs twice over the same layout code: a sizing
// pass that adds an upper bound of every byte to n, then a writing pass
// that appends into a buffer of that capacity, so the body costs one
// allocation (EncodeWireJSON).
type wireEncoder struct {
	sizing bool
	n      int
	buf    []byte
	// escapes counts the string bytes the sizing pass found unsafe
	// (see jsonSafe). When there are none, the writing pass copies every
	// string whole.
	escapes int
	// first is set by open and cleared by the first member or element
	// of the value just opened, which is therefore written without a
	// leading comma.
	first bool
	err   error
	// cond and drift hold the last condition estimate and scale drift
	// the writing pass spelled, and where in buf: a frame's pair recurs
	// on every coefficient the frame resolved, and a repeat is copied
	// instead of formatted again.
	cond, drift spelling
}

// spelling is a float64, by its bits, and its bytes buf[off:off+n]; n is
// 0 until a value is recorded.
type spelling struct {
	bits   uint64
	off, n int32
}

// maxFloatLen bounds the length of a float64 in encoding/json's
// spelling: "-0.000001" followed by 16 more digits in 'f' form, or
// "-1.2345678901234567e-308" in 'e' form.
const maxFloatLen = 25

// breaks is the separator of the deepest wire member (depth 5,
// WireIteration.Negligible's elements): a comma, a newline and its
// indentation. Shallower separators are its prefixes, and a first
// member's or a closing bracket's line break drops the comma.
const breaks = ",\n          "

func (e *wireEncoder) response(w *WireResponse) {
	e.open('{')
	if w.Backend != "" {
		e.field(1, "backend")
		e.str(w.Backend)
	}
	e.field(1, "tier")
	e.str(w.Tier)
	if w.Num != nil {
		e.field(1, "num")
		e.result(2, w.Num)
	}
	if w.Den != nil {
		e.field(1, "den")
		e.result(2, w.Den)
	}
	e.close(0, '}')
}

// result renders r with its members at depth d.
func (e *wireEncoder) result(d int, r *WireResult) {
	e.open('{')
	e.field(d, "name")
	e.str(r.Name)
	e.field(d, "order")
	e.int(r.Order)
	e.field(d, "m")
	e.int(r.M)
	e.field(d, "sig_digits")
	e.int(r.SigDigits)
	e.field(d, "seed_fscale")
	e.float(r.SeedFScale)
	e.field(d, "seed_gscale")
	e.float(r.SeedGScale)
	e.field(d, "tier")
	e.str(r.Tier)
	e.field(d, "coeffs")
	if r.Coeffs == nil {
		e.raw("null")
	} else {
		e.list(d+1, len(r.Coeffs), func(i int) { e.coeff(d+2, &r.Coeffs[i]) })
	}
	e.field(d, "total_solves")
	e.int(r.TotalSolves)
	e.field(d, "cache_hits")
	e.int(r.CacheHits)
	e.field(d, "cache_misses")
	e.int(r.CacheMisses)
	e.intOmit(d, "frame_retries", r.FrameRetries)
	e.intOmit(d, "failed_frames", r.FailedFrames)
	if len(r.Events) > 0 {
		e.field(d, "events")
		e.list(d+1, len(r.Events), func(i int) { e.event(d+2, &r.Events[i]) })
	}
	if len(r.Iterations) > 0 {
		e.field(d, "iterations")
		e.list(d+1, len(r.Iterations), func(i int) { e.iteration(d+2, &r.Iterations[i]) })
	}
	e.close(d-1, '}')
}

func (e *wireEncoder) coeff(d int, c *WireCoefficient) {
	e.open('{')
	e.field(d, "status")
	e.str(c.Status)
	e.strOmit(d, "value", c.Value)
	e.strOmit(d, "approx", c.Approx)
	e.strOmit(d, "bound", c.Bound)
	e.floatOmit(d, "quality", c.Quality)
	e.field(d, "iteration")
	e.int(c.Iteration)
	e.field(d, "tier")
	e.str(c.Tier)
	e.floatOmit(d, "rel_error", c.RelError)
	e.repeatOmit(d, "cond_log10", c.CondLog10, &e.cond)
	e.repeatOmit(d, "drift_log10", c.DriftLog10, &e.drift)
	e.intOmit(d, "retries", c.Retries)
	e.close(d-1, '}')
}

func (e *wireEncoder) iteration(d int, it *WireIteration) {
	e.open('{')
	e.field(d, "purpose")
	e.str(it.Purpose)
	e.field(d, "fscale")
	e.float(it.FScale)
	e.field(d, "gscale")
	e.float(it.GScale)
	e.field(d, "k")
	e.int(it.K)
	e.field(d, "offset")
	e.int(it.Offset)
	e.field(d, "lo")
	e.int(it.Lo)
	e.field(d, "hi")
	e.int(it.Hi)
	e.field(d, "new_valid")
	e.int(it.NewValid)
	e.intOmit(d, "revised", it.Revised)
	e.field(d, "solves")
	e.int(it.Solves)
	e.intOmit(d, "attempt", it.Attempt)
	if len(it.Negligible) > 0 {
		e.field(d, "negligible")
		e.list(d+1, len(it.Negligible), func(i int) { e.int(it.Negligible[i]) })
	}
	e.close(d-1, '}')
}

func (e *wireEncoder) event(d int, ev *WireQualityEvent) {
	e.open('{')
	e.field(d, "kind")
	e.str(ev.Kind)
	e.field(d, "frame")
	e.int(ev.Frame)
	e.field(d, "target")
	e.int(ev.Target)
	e.field(d, "detail")
	e.str(ev.Detail)
	e.close(d-1, '}')
}

func (e *wireEncoder) raw(s string) {
	if e.sizing {
		e.n += len(s)
		return
	}
	e.buf = append(e.buf, s...)
}

func (e *wireEncoder) open(c byte) {
	e.first = true
	if e.sizing {
		e.n++
		return
	}
	e.buf = append(e.buf, c)
}

// close ends an object or array whose closing bracket sits at depth d.
func (e *wireEncoder) close(d int, c byte) {
	e.first = false
	if e.sizing {
		e.n += 2*d + 2
		return
	}
	e.buf = append(e.buf, breaks[1:2+2*d]...)
	e.buf = append(e.buf, c)
}

// elem starts the next member or element at depth d: the separating
// comma, a newline and the indentation.
func (e *wireEncoder) elem(d int) {
	if e.sizing {
		e.n += 2*d + 2
		return
	}
	from := 0
	if e.first {
		from = 1
	}
	e.first = false
	e.buf = append(e.buf, breaks[from:2+2*d]...)
}

// field starts member key at depth d. Keys are plain ASCII: they need
// no escaping.
func (e *wireEncoder) field(d int, key string) {
	e.elem(d)
	if e.sizing {
		e.n += len(key) + 4
		return
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '"', ':', ' ')
}

// list renders n array elements at depth d, item rendering the i-th.
func (e *wireEncoder) list(d, n int, item func(i int)) {
	if n == 0 {
		e.raw("[]")
		return
	}
	e.open('[')
	for i := range n {
		e.elem(d)
		item(i)
	}
	e.close(d-1, ']')
}

func (e *wireEncoder) int(v int) {
	if e.sizing {
		e.n += intLen(v)
		return
	}
	e.buf = strconv.AppendInt(e.buf, int64(v), 10)
}

func (e *wireEncoder) intOmit(d int, key string, v int) {
	if v != 0 {
		e.field(d, key)
		e.int(v)
	}
}

func intLen(v int) int {
	n := 1
	if v < 0 {
		n++
	}
	for ; v >= 10 || v <= -10; v /= 10 {
		n++
	}
	return n
}

// float spells v as encoding/json does: the shortest round-tripping
// decimal, in exponent form below 1e-6 and from 1e21 on in magnitude,
// with a one-digit negative exponent unpadded ("1e-7", not "1e-07").
func (e *wireEncoder) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
		return
	}
	if e.sizing {
		e.n += maxFloatLen
		return
	}
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, v, format, -1, 64)
	if n := len(e.buf); format == 'e' && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
		e.buf[n-2] = e.buf[n-1]
		e.buf = e.buf[:n-1]
	}
}

// floatOmit renders a member tagged omitempty: −0 is empty too.
func (e *wireEncoder) floatOmit(d int, key string, v float64) {
	if v != 0 {
		e.field(d, key)
		e.float(v)
	}
}

// repeatOmit is floatOmit for a member whose value often repeats the
// one it had last: the writing pass copies the spelling sp holds when v
// has its bits, and otherwise records v's.
func (e *wireEncoder) repeatOmit(d int, key string, v float64, sp *spelling) {
	if v == 0 {
		return
	}
	e.field(d, key)
	bits := math.Float64bits(v)
	if e.sizing || sp.n == 0 || sp.bits != bits {
		start := len(e.buf)
		e.float(v)
		*sp = spelling{bits: bits, off: int32(start), n: int32(len(e.buf) - start)}
		return
	}
	e.buf = append(e.buf, e.buf[sp.off:sp.off+sp.n]...)
}

// str quotes s as encoding/json does with HTML escaping on. The sizing
// pass bounds every byte that may need escaping by the six of a \u00XX
// escape, which also covers the \ufffd written for an invalid byte and the
// \u2028 written for a three-byte line separator. When the sizing pass
// found no such byte in the whole response, the writing pass copies each
// string whole.
func (e *wireEncoder) str(s string) {
	if e.sizing {
		escaped := 0
		for i := 0; i < len(s); i++ {
			if !jsonSafe(s[i]) {
				escaped++
			}
		}
		e.n += 2 + len(s) + 5*escaped
		e.escapes += escaped
		return
	}
	b := append(e.buf, '"')
	if e.escapes == 0 {
		b = append(b, s...)
		e.buf = append(b, '"')
		return
	}
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.buf = append(b, '"')
}

func (e *wireEncoder) strOmit(d int, key, s string) {
	if s != "" {
		e.field(d, key)
		e.str(s)
	}
}

// jsonSafe reports whether byte c stands for itself inside an
// HTML-escaped JSON string: printable ASCII other than the quote, the
// backslash and <, >, &. Bytes from 0x80 on are not safe: they start
// multi-byte runes, which str checks separately.
func jsonSafe(c byte) bool { return safeBytes[c] }

var safeBytes = func() (t [256]bool) {
	for c := byte(0x20); c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()
