package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeNetlist drops a small admittance-only RC divider into a temp dir
// so the nodal methods have a fast fixture.
func writeNetlist(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rc.sp")
	src := "rc divider\nR1 in out 1k\nC1 in out 1p\nR2 out 0 2k\nC2 out 0 2p\n.end\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stderr string
	}{
		{"missing netlist", nil, "-netlist is required"},
		{"undefined flag", []string{"-no-such-flag"}, "flag provided but not defined"},
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

func TestRunRuntimeErrors(t *testing.T) {
	rc := writeNetlist(t)
	cases := []struct {
		name   string
		args   []string
		stderr string
	}{
		{"missing file", []string{"-netlist", filepath.Join(t.TempDir(), "nope.sp")}, "refgen:"},
		{"unknown method", []string{"-netlist", rc, "-method", "bogus"}, `unknown method "bogus"`},
		{"unknown transfer kind", []string{"-netlist", rc, "-tf", "bogus"}, "refgen:"},
		{"missing node", []string{"-netlist", rc, "-in", "ghost"}, "refgen:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 1 {
				t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.stderr) {
				t.Errorf("stderr %q does not mention %q", errb.String(), tc.stderr)
			}
		})
	}
}

func TestRunMethods(t *testing.T) {
	rc := writeNetlist(t)
	for _, method := range []string{"adaptive", "fixed", "unit"} {
		t.Run(method, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run([]string{"-netlist", rc, "-method", method, "-parallel", "1"}, &out, &errb)
			if code != 0 {
				t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
			}
			for _, want := range []string{"transfer function:", "numerator", "denominator"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("stdout does not mention %q:\n%s", want, out.String())
				}
			}
		})
	}
}

func TestRunAdaptiveVerboseWithPoles(t *testing.T) {
	rc := writeNetlist(t)
	var out, errb bytes.Buffer
	code := run([]string{"-netlist", rc, "-v", "-poles", "-parallel", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"iterations", "poles", "zeros"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout does not mention %q", want)
		}
	}
}

func TestRunProfileFlags(t *testing.T) {
	rc := writeNetlist(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errb bytes.Buffer
	code := run([]string{"-netlist", rc, "-cpuprofile", cpu, "-memprofile", mem, "-parallel", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

func TestRunProfileFlagBadPath(t *testing.T) {
	rc := writeNetlist(t)
	var out, errb bytes.Buffer
	bad := filepath.Join(t.TempDir(), "missing-dir", "cpu.pprof")
	if code := run([]string{"-netlist", rc, "-cpuprofile", bad}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errb.String())
	}
}

func TestRunPrintsJointCacheCounters(t *testing.T) {
	rc := writeNetlist(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-netlist", rc, "-parallel", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "joint cache:") {
		t.Errorf("stdout missing joint cache counter line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "effective factorizations") {
		t.Errorf("stdout missing effective factorizations:\n%s", out.String())
	}
}

func TestRunPrintsScaleFallbackWarning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ronly.sp")
	src := "resistive divider\nR1 in out 1k\nR2 out 0 2k\n.end\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-netlist", path, "-parallel", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "warning: no capacitors") {
		t.Errorf("stdout missing fallback warning:\n%s", out.String())
	}
}

func TestRunMNAPath(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-netlist", "../../testdata/rlc.sp", "-tf", "mna", "-out", "out", "-parallel", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "denominator") {
		t.Errorf("stdout missing denominator table:\n%s", out.String())
	}
}

func TestRunTimeoutExpired(t *testing.T) {
	rc := writeNetlist(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-netlist", rc, "-timeout", "1ns", "-parallel", "1"}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "context deadline exceeded") {
		t.Errorf("stderr does not mention the deadline: %s", errb.String())
	}
	// The partial numerator result must still be reported.
	if !strings.Contains(out.String(), "UNRESOLVED") {
		t.Errorf("stdout missing partial result:\n%s", out.String())
	}
}

func TestRunTimeoutGenerous(t *testing.T) {
	rc := writeNetlist(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-netlist", rc, "-timeout", "1m", "-parallel", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "joint cache:") {
		t.Errorf("generous timeout changed the output:\n%s", out.String())
	}
}

func TestRunBackendFlag(t *testing.T) {
	rc := writeNetlist(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-netlist", rc, "-backend", "nodal", "-parallel", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-netlist", rc, "-backend", "bogus"}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "unknown backend") {
		t.Errorf("stderr does not mention the unknown backend: %s", errb.String())
	}
}

func TestRunProgressFlag(t *testing.T) {
	rc := writeNetlist(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-netlist", rc, "-progress", "-parallel", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "refgen: iteration initial") {
		t.Errorf("stderr missing the streamed iteration trace:\n%s", errb.String())
	}
}

func TestRunFaultBackendRecovers(t *testing.T) {
	// The registered "fault" wrapper pins a pole to evaluation angle 0,
	// so every frame fails once and heals on its rotated retry: the run
	// must succeed and report the recovery.
	rc := writeNetlist(t)
	var out, errb bytes.Buffer
	code := run([]string{"-netlist", rc, "-backend", "fault:nodal", "-parallel", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "recovered:") {
		t.Errorf("stdout does not report the frame retries:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "failure:") {
		t.Errorf("stdout does not list the failure events:\n%s", out.String())
	}
}

func TestRunAllowDegradedFlagAccepted(t *testing.T) {
	rc := writeNetlist(t)
	var out, errb bytes.Buffer
	code := run([]string{"-netlist", rc, "-allow-degraded", "-parallel", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	if strings.Contains(out.String(), "DEGRADED") {
		t.Errorf("clean run reported as degraded:\n%s", out.String())
	}
}
