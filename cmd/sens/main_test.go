package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no circuit", nil},
		{"undefined flag", []string{"-no-such-flag"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, errb.String())
			}
		})
	}
}

func TestRunUnknownCircuitFile(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-netlist", "no-such-file.sp"}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errb.String())
	}
}

func TestRunBadSpec(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-circuit", "ota", "-tf", "zz"}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "sens:") {
		t.Errorf("stderr does not carry the sens: prefix: %s", errb.String())
	}
}

// TestRunOTASmoke exercises the full engine batch path and checks the
// amortization stats line: the OTA sweep has 2·|elements| warm-startable
// points and must warm-start all of them.
func TestRunOTASmoke(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-circuit", "ota", "-top", "3"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"normalized sensitivities", "batch:", "warm starts", "solves/point"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout does not mention %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), " 0 warm starts") {
		t.Errorf("warm-start sweep reported zero warm starts:\n%s", out.String())
	}
}
