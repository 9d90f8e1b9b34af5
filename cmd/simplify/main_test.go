package main

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/netlist"
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
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h exit code = %d, want 0", code)
	}
}

func TestRunRuntimeErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"missing netlist", []string{"-netlist", "no-such-file.sp"}},
		{"unknown output node", []string{"-circuit", "ota", "-out", "zz", "-n", "3"}},
		{"unwritable emit path", []string{"-circuit", "ota", "-n", "3", "-emit", filepath.Join(t.TempDir(), "no-dir", "x.sp")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 1 {
				t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errb.String())
			}
			if !strings.HasPrefix(errb.String(), "simplify:") {
				t.Errorf("stderr does not carry the simplify: prefix: %s", errb.String())
			}
		})
	}
}

// TestRunOTAEmit simplifies the OTA and writes the simplified netlist:
// the file must parse back to the element count the summary reports.
func TestRunOTAEmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "simplified.sp")
	var out, errb bytes.Buffer
	if code := run([]string{"-circuit", "ota", "-n", "5", "-emit", path}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"accepted simplifications", "elements:", "simplified netlist written to"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout does not mention %q:\n%s", want, out.String())
		}
	}
	c, err := netlist.ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := " -> " + strconv.Itoa(len(c.Elements())) + " ("; !strings.Contains(out.String(), want) {
		t.Errorf("summary does not report the %d emitted elements:\n%s", len(c.Elements()), out.String())
	}
}
