package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/netlist"
)

// respell renders spelling v of a netlist. Spelling 0 is src itself.
// Every other spelling describes the same element multiset in another
// text: a new title and a comment card, the element cards in another
// order, every element renamed (keeping the first letter, which names
// its kind), ground spelled "gnd" or "0", fields separated by other
// whitespace, and each value written in another decimal form ("1k",
// "1000", "1e3", "1K", "1kohm") that parses to the same float64 bits.
// All spellings of one netlist therefore share one content key. The
// result depends only on (src, v, seed).
//
// src must be a title line, element cards whose last field is the value,
// and a final ".end"; current-controlled sources (F, H), whose cards name
// another element, are refused.
func respell(src string, v int, seed uint64) (string, error) {
	if v == 0 {
		return src, nil
	}
	lines := strings.Split(strings.TrimRight(src, "\n"), "\n")
	if len(lines) < 3 || !strings.EqualFold(strings.TrimSpace(lines[len(lines)-1]), ".end") {
		return "", fmt.Errorf("respell: netlist must have a title, cards and .end")
	}
	rng := rand.New(rand.NewSource(int64(mix(seed, uint64(v)))))
	cards := append([]string(nil), lines[1:len(lines)-1]...)
	rng.Shuffle(len(cards), func(i, j int) { cards[i], cards[j] = cards[j], cards[i] })

	seps := []string{" ", "  ", "\t", " \t "}
	units := map[rune]string{'R': "ohm", 'C': "F", 'L': "H", 'G': "S"}
	gnd := []string{"0", "gnd", "GND"}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (spelling %d)\n* respelled card order, names and values\n", lines[0], v)
	for i, card := range cards {
		f := strings.Fields(card)
		if len(f) < 4 {
			return "", fmt.Errorf("respell: short card %q", card)
		}
		if k := unicode.ToUpper(rune(f[0][0])); k == 'F' || k == 'H' {
			return "", fmt.Errorf("respell: card %q names another element", card)
		}
		f[0] = fmt.Sprintf("%cx%d_%d", f[0][0], v, i)
		for j := 1; j < len(f)-1; j++ {
			if f[j] == "0" || strings.EqualFold(f[j], "gnd") {
				f[j] = gnd[rng.Intn(len(gnd))]
			}
		}
		alts, err := valueSpellings(f[len(f)-1], units[unicode.ToUpper(rune(f[0][0]))])
		if err != nil {
			return "", fmt.Errorf("respell: card %q: %w", card, err)
		}
		f[len(f)-1] = alts[rng.Intn(len(alts))]
		for j, field := range f {
			if j > 0 {
				b.WriteString(seps[rng.Intn(len(seps))])
			}
			b.WriteString(field)
		}
		b.WriteByte('\n')
	}
	b.WriteString(".end\n")
	return b.String(), nil
}

// valueSpellings lists the decimal forms of a value token that parse to
// exactly the token's float64: the token, its upper-case form, the token
// with the unit name appended after its magnitude suffix, strconv's
// shortest general, exponent and fixed forms, and the value rescaled to
// each magnitude suffix.
func valueSpellings(tok, unit string) ([]string, error) {
	want, err := netlist.ParseValue(tok)
	if err != nil {
		return nil, err
	}
	cands := []string{tok, strings.ToUpper(tok)}
	if unicode.IsLetter(rune(tok[len(tok)-1])) && unit != "" {
		// After a magnitude suffix the parser ignores unit letters; on a
		// bare number "F" would read as femto, so only suffixed tokens
		// take a unit.
		cands = append(cands, tok+unit)
	}
	for _, fmtc := range []byte{'g', 'e', 'E', 'f'} {
		cands = append(cands, strconv.FormatFloat(want, fmtc, -1, 64))
	}
	for _, suf := range []struct {
		s string
		m float64
	}{{"meg", 1e6}, {"k", 1e3}, {"m", 1e-3}, {"u", 1e-6}, {"n", 1e-9}, {"p", 1e-12}, {"f", 1e-15}} {
		cands = append(cands, strconv.FormatFloat(want/suf.m, 'g', -1, 64)+suf.s)
	}
	var out []string
	seen := map[string]bool{}
	for _, c := range cands {
		got, err := netlist.ParseValue(c)
		if err == nil && math.Float64bits(got) == math.Float64bits(want) && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out, nil
}

// mix is the splitmix64 finalizer of seed and index: the benchmark's
// counter-based random source. Draw i of a stream needs no state, so
// concurrent clients can draw request i in any order and still see the
// same request stream for one seed.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// unit maps draw i of stream seed to [0, 1).
func unit(seed, i uint64) float64 { return float64(mix(seed, i)>>11) / (1 << 53) }
