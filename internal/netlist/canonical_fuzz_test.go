package netlist

import (
	"testing"
)

// FuzzCanonicalNetlist pins the canonicalization contract on arbitrary
// parseable inputs: the canonical form must itself parse, and
// canonicalizing the reparsed circuit must reproduce the canonical text
// byte for byte (idempotence — the property that makes the SHA-256 of
// the canonical form a sound content-address). Element order,
// whitespace, comments and value spelling all collapse into the same
// fixed point by construction.
func FuzzCanonicalNetlist(f *testing.F) {
	f.Add("rc\nR1 in out 1k\nC1 out 0 1u\nRl out 0 1meg\n.end\n")
	f.Add("sources\nV1 in 0 1\nE1 a 0 in 0 10\nG1 b 0 a 0 -2m\nRb b 0 50\nF1 c 0 V1 5\nH1 d 0 V1 1k\nRc c 0 1\nRd d 0 1\n.end\n")
	f.Add("dup sources\nV1 in 0 1\nV2 in 0 1\nF1 a 0 V2 2\nRa a 0 1\nRin in 0 50\n.end\n")
	f.Add("hier\n.subckt stage a b\nRs a b 1k\nCs b 0 1p\n.ends\nXa in mid stage\nXb mid out stage\nRl out 0 1meg\n.end\n")
	f.Add("devices\nQ1 c b 0 IC=1m\nRb b 0 10k\nRc c 0 2k\nCcb c b 2p\n.end\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseString(src, "fuzz")
		if err != nil {
			t.Skip()
		}
		s1, err := CanonicalString(c)
		if err != nil {
			// Parsed circuits only fail canonicalization through the
			// documented refusals (none are reachable from the grammar:
			// nodes cannot carry whitespace or comment characters, and
			// ground self-shorts are rejected at parse time).
			t.Fatalf("canonicalization of a parsed circuit failed: %v\ninput:\n%s", err, src)
		}
		c2, err := ParseString(s1, "fuzz-canon")
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\nform:\n%s", err, s1)
		}
		s2, err := CanonicalString(c2)
		if err != nil {
			t.Fatalf("re-canonicalization failed: %v\nform:\n%s", err, s1)
		}
		if s1 != s2 {
			t.Fatalf("canonicalization not idempotent:\n--- first\n%s--- second\n%s", s1, s2)
		}
		if len(c2.Elements()) != len(c.Elements()) {
			t.Fatalf("canonical form kept %d of %d elements", len(c2.Elements()), len(c.Elements()))
		}
	})
}
