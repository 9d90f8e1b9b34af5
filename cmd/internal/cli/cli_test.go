package cli

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
		{"netlist", "", "../../../testdata/rlc.sp", 0, ""},
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
			ckt, code := LoadCircuit(fs, tc.builtin, tc.netFile)
			if code != tc.code || (ckt != nil) != (tc.code == 0) {
				t.Fatalf("code = %d, circuit %v; want code %d (stderr: %s)", code, ckt != nil, tc.code, errb.String())
			}
			if !strings.HasPrefix(errb.String(), tc.stderr) || (tc.stderr == "") != (errb.Len() == 0) {
				t.Errorf("stderr = %q, want prefix %q", errb.String(), tc.stderr)
			}
		})
	}
}
