package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"
)

func TestLoadCircuit(t *testing.T) {
	cases := []struct {
		name, builtin, netFile string
		code                   int
		stderr                 string
	}{
		{"ua741", "ua741", "", 0, ""},
		{"ota", "ota", "", 0, ""},
		{"netlist", "", "../../testdata/rlc.sp", 0, ""},
		{"builtin wins", "ota", "no-such-file.sp", 0, ""},
		{"missing netlist", "", "no-such-file.sp", 1, "tool: "},
		{"nothing selected", "", "", 2, "tool: need -circuit or -netlist\nUsage of tool:"},
		{"unknown builtin", "zz", "", 2, "tool: need -circuit or -netlist"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errb bytes.Buffer
			fs := flag.NewFlagSet("tool", flag.ContinueOnError)
			fs.SetOutput(&errb)
			ckt, code := loadCircuit(fs, tc.builtin, tc.netFile)
			if code != tc.code || (ckt != nil) != (tc.code == 0) {
				t.Fatalf("code = %d, circuit %v; want code %d (stderr: %s)", code, ckt != nil, tc.code, errb.String())
			}
			if !strings.HasPrefix(errb.String(), tc.stderr) || (tc.stderr == "") != (errb.Len() == 0) {
				t.Errorf("stderr = %q, want prefix %q", errb.String(), tc.stderr)
			}
		})
	}
}

// TestBandErrors: a band that bode.LogSpace cannot lay out is a usage
// error of the command that names it, not a panic.
func TestBandErrors(t *testing.T) {
	cases := [][]string{
		{"bodecmp", "-circuit", "ota", "-n", "1"},
		{"sens", "-circuit", "ota", "-fmin", "0"},
		{"simplify", "-circuit", "ota", "-fmin", "1e3", "-fmax", "1e3"},
		{"tolerance", "-circuit", "ota", "-points", "0"},
	}
	for _, args := range cases {
		t.Run(args[0], func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, errb.String())
			}
			if want := args[0] + ": need 0 < -fmin < -fmax"; !strings.HasPrefix(errb.String(), want) {
				t.Errorf("stderr %q does not start with %q", errb.String(), want)
			}
			if out.Len() != 0 {
				t.Errorf("stdout not empty: %s", out.String())
			}
		})
	}
}
