package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// postRaw posts a literal request body and returns the answer.
func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/generate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// rcRequest is a vgain request on rcNetlist with the given options
// object spliced in verbatim ("" for none).
func rcRequest(t *testing.T, options string) string {
	t.Helper()
	netlist, err := json.Marshal(rcNetlist)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"netlist":` + string(netlist) + `,"spec":{"kind":"vgain","in":"in","out":"n1"}`
	if options != "" {
		body += `,"options":` + options
	}
	return body + "}"
}

// TestBadOptionsAre400 pins the range check at the wire: options no
// generator can honor answer 400 bad-options before any generation,
// instead of a certified body of zeros (σ ≥ 14) or a 422.
func TestBadOptionsAre400(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, opts := range []string{
		`{"sig_digits":14}`,
		`{"sig_digits":13}`,
		`{"sig_digits":-1}`,
		`{"max_iterations":-1}`,
		`{"stall_limit":-1}`,
		`{"parallelism":-4}`,
		`{"init_fscale":-1}`,
		`{"init_gscale":-2.5}`,
	} {
		resp, raw := postRaw(t, ts.URL, rcRequest(t, opts))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", opts, resp.StatusCode, raw)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Kind != "bad-options" {
			t.Errorf("%s: error body %s, want kind bad-options", opts, raw)
		}
	}
	if g := s.Stats().Generations; g != 0 {
		t.Errorf("refused options ran %d generations", g)
	}
}

// TestRespelledOptionsHit: options spelled out at their defaults name the
// same content address as omitted ones, and the ablation switches are
// not on the wire at all — a request carrying one decodes, keys and
// answers exactly like one without it.
func TestRespelledOptionsHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, first := postRaw(t, ts.URL, rcRequest(t, `{}`))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request: status %d, X-Cache %q (%s)", resp.StatusCode, resp.Header.Get("X-Cache"), first)
	}
	for _, opts := range []string{
		`{"sig_digits":6,"max_iterations":64}`,
		`{"no_mirror":true}`,
		`{"stall_limit":3,"frame_retries":2,"watchdog_stall":12,"max_scale_drift_log10":18,"parallelism":1}`,
	} {
		resp, raw := postRaw(t, ts.URL, rcRequest(t, opts))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", opts, resp.StatusCode, raw)
		}
		if got := resp.Header.Get("X-Cache"); got != "hit" {
			t.Errorf("%s: X-Cache = %q, want hit", opts, got)
		}
		if !bytes.Equal(raw, first) {
			t.Errorf("%s: body differs from the omitted-options body", opts)
		}
	}

	st, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats Stats
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Generations != 1 {
		t.Errorf("/v1/stats generations = %d, want 1", stats.Generations)
	}

	var req GenerateRequest
	if err := json.Unmarshal([]byte(rcRequest(t, `{"no_mirror":true,"no_joint":true,"no_reduce":true,"single_factor":true}`)), &req); err != nil {
		t.Fatal(err)
	}
	if o := req.Options; o.NoMirror || o.NoJoint || o.NoReduce || o.SingleFactor {
		t.Errorf("ablation switches decoded from the wire: %+v", *o)
	}
}

// TestPipeSpecsDoNotShareAnEntry: diffgain (a|, b) and (a, |b) on a
// circuit with all four nodes are different results; the second request
// must generate, not be answered with the first one's cached body.
func TestPipeSpecsDoNotShareAnEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	netlist, err := json.Marshal("pipes\nR1 a| b 1k\nR2 a b 2k\nR3 |b out 3k\nR4 b out 1k\nC1 out 0 1n\nC2 a 0 2n\nR5 a 0 10k\nR6 |b 0 5k\nR7 a| 0 4k\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, spec := range []string{
		`{"kind":"diffgain","in":"a|","inn":"b","out":"out"}`,
		`{"kind":"diffgain","in":"a","inn":"|b","out":"out"}`,
	} {
		resp, raw := postRaw(t, ts.URL, `{"netlist":`+string(netlist)+`,"spec":`+spec+`}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", spec, resp.StatusCode, raw)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("%s: X-Cache = %q, want miss", spec, got)
		}
		bodies = append(bodies, raw)
	}
	if bytes.Equal(bodies[0], bodies[1]) {
		t.Error("the two specs were answered with one body")
	}
}
