package main

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/netlist"
)

// TestSubcommandHelp: every subcommand's -h exits 0.
func TestSubcommandHelp(t *testing.T) {
	for _, sub := range subcommands {
		t.Run(sub.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{sub.name, "-h"}, &out, &errb); code != 0 {
				t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), "Usage of "+sub.name) {
				t.Errorf("-h printed no usage text:\n%s", errb.String())
			}
		})
	}
}

// TestDispatch: a first argument that is not a flag must name a
// subcommand; without one refgen generates, as before subcommands.
func TestDispatch(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stderr string
	}{
		{"no arguments", nil, "-netlist is required"},
		{"unknown subcommand", []string{"bogus", "-circuit", "ota"},
			"refgen: unknown subcommand \"bogus\"\nsubcommands: bodecmp, sens, simplify, tables, tolerance"},
		{"flag before subcommand", []string{"-v", "tables"}, "-netlist is required"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.stderr) {
				t.Errorf("stderr %q does not mention %q", errb.String(), tc.stderr)
			}
		})
	}
}

// analysisUsageErrors: a subcommand that takes a circuit exits 2 with
// none selected and on an undefined flag.
func analysisUsageErrors(t *testing.T, sub string) {
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
			if code := run(append([]string{sub}, tc.args...), &out, &errb); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, errb.String())
			}
		})
	}
}

// analysisRunFails runs a subcommand that must fail at runtime: exit 1,
// stderr under the subcommand's name.
func analysisRunFails(t *testing.T, args ...string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.HasPrefix(errb.String(), args[0]+":") {
		t.Errorf("stderr does not carry the %s: prefix: %s", args[0], errb.String())
	}
}

// runOK runs a subcommand that must succeed and mention every want.
func runOK(t *testing.T, args []string, wants ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	for _, want := range wants {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout does not mention %q:\n%s", want, out.String())
		}
	}
	return out.String()
}

func TestBodecmpUsageErrors(t *testing.T) { analysisUsageErrors(t, "bodecmp") }

func TestBodecmpUnknownCircuitFile(t *testing.T) {
	analysisRunFails(t, "bodecmp", "-netlist", "no-such-file.sp")
}

func TestBodecmpOTASmoke(t *testing.T) {
	runOK(t, []string{"bodecmp", "-circuit", "ota", "-n", "5"}, "Bode comparison", "max deviation:")
}

func TestSensUsageErrors(t *testing.T) { analysisUsageErrors(t, "sens") }

func TestSensUnknownCircuitFile(t *testing.T) {
	analysisRunFails(t, "sens", "-netlist", "no-such-file.sp")
}

func TestSensBadSpec(t *testing.T) {
	analysisRunFails(t, "sens", "-circuit", "ota", "-tf", "zz")
}

// TestSensOTASmoke exercises the full engine batch path and checks the
// amortization stats line: the OTA sweep has 2·|elements| warm-startable
// points and must warm-start all of them.
func TestSensOTASmoke(t *testing.T) {
	out := runOK(t, []string{"sens", "-circuit", "ota", "-top", "3"},
		"normalized sensitivities", "batch:", "warm starts", "solves/point")
	if strings.Contains(out, " 0 warm starts") {
		t.Errorf("warm-start sweep reported zero warm starts:\n%s", out)
	}
}

func TestSimplifyUsageErrors(t *testing.T) {
	analysisUsageErrors(t, "simplify")
	var out, errb bytes.Buffer
	if code := run([]string{"simplify", "-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h exit code = %d, want 0", code)
	}
}

func TestSimplifyRuntimeErrors(t *testing.T) {
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
			analysisRunFails(t, append([]string{"simplify"}, tc.args...)...)
		})
	}
}

// TestSimplifyOTAEmit simplifies the OTA and writes the simplified
// netlist: the file must parse back to the element count the summary
// reports.
func TestSimplifyOTAEmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "simplified.sp")
	out := runOK(t, []string{"simplify", "-circuit", "ota", "-n", "5", "-emit", path},
		"accepted simplifications", "elements:", "simplified netlist written to")
	c, err := netlist.ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := " -> " + strconv.Itoa(len(c.Elements())) + " ("; !strings.Contains(out, want) {
		t.Errorf("summary does not report the %d emitted elements:\n%s", len(c.Elements()), out)
	}
}

func TestTablesUsageErrors(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stderr string
	}{
		{"unknown table", []string{"-table", "9z"}, `unknown table "9z"`},
		{"unknown figure", []string{"-fig", "3"}, `unknown figure "3"`},
		{"undefined flag", []string{"-no-such-flag"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(append([]string{"tables"}, tc.args...), &out, &errb); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.stderr) {
				t.Errorf("stderr %q does not mention %q", errb.String(), tc.stderr)
			}
		})
	}
}

func TestTablesTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the OTA fixture")
	}
	runOK(t, []string{"tables", "-table", "1a"}, "Table 1a")
	runOK(t, []string{"tables", "-table", "1b"}, "Table 1b")
}

func TestToleranceUsageErrors(t *testing.T) { analysisUsageErrors(t, "tolerance") }

func TestToleranceUnknownCircuitFile(t *testing.T) {
	analysisRunFails(t, "tolerance", "-netlist", "no-such-file.sp")
}

func TestToleranceBadSpec(t *testing.T) {
	analysisRunFails(t, "tolerance", "-circuit", "ota", "-tf", "zz", "-n", "3")
}

// TestToleranceOTASmoke exercises the engine batch path end to end and
// checks the quantile table plus the amortization stats line.
func TestToleranceOTASmoke(t *testing.T) {
	runOK(t, []string{"tolerance", "-circuit", "ota", "-n", "8", "-points", "5"},
		"magnitude quantiles", "worst spread:", "batch: 8 samples", "warm starts", "solves/point")
}
