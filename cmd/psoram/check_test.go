package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestCLIChild runs the command line given after "--" on this test
// binary, as psoram would. Without such arguments it does nothing; the
// tests below start it in a child process because the CLI exits.
func TestCLIChild(t *testing.T) {
	if flag.NArg() == 0 {
		return
	}
	os.Args = append([]string{"psoram"}, flag.Args()...)
	main()
}

// runCLI runs psoram with args in a child process and returns its exit
// code and combined output.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestCLIChild$", "-test.count=1", "--"}, args...)...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, out.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), out.String()
	}
	t.Fatalf("psoram %v: %v", args, err)
	return 0, ""
}

// TestCrashRejectsTooFewAccesses: a crash sweep of fewer than two
// accesses would print verdicts about nothing; the CLI refuses it the way
// it refuses -seeds 0.
func TestCrashRejectsTooFewAccesses(t *testing.T) {
	for _, n := range []string{"1", "0", "-5"} {
		code, out := runCLI(t, "crash", "-accesses", n)
		if code != 1 || !strings.Contains(out, "need at least 2 accesses") || strings.Contains(out, "CRASH CONSISTENT") {
			t.Errorf("crash -accesses %s: exit %d, output:\n%s", n, code, out)
		}
	}
	code, out := runCLI(t, "crash", "-accesses", "2", "-schemes", "PS-ORAM")
	if code != 0 || !strings.Contains(out, "CRASH CONSISTENT") {
		t.Errorf("crash -accesses 2: exit %d, output:\n%s", code, out)
	}
}

// TestRejectsNonPositiveCounts: a run of zero accesses, records, ops,
// blocks or seeds would print a table of NaN or 0.000, write an empty
// trace, panic, or (for a sweep) swap in a default; every subcommand
// that takes such a count refuses a non-positive one with exit 1.
func TestRejectsNonPositiveCounts(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.psot")
	if err := trace.Save(empty, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"experiments", "-exp", "fig7", "-accesses", "-5"}, "need at least 1 access"},
		{[]string{"experiments", "-exp", "fig5a", "-accesses", "0"}, "need at least 1 access"},
		{[]string{"sweep", "-schemes", "Baseline", "-workloads", "401.bzip2", "-levels", "8", "-quiet", "-accesses", "0"}, "need at least 1 access"},
		{[]string{"sweep", "-schemes", "Baseline", "-workloads", "401.bzip2", "-levels", "8", "-quiet", "-accesses", "10", "-seeds", "0"}, "need at least 1 seed"},
		{[]string{"sweep", "-schemes", "Baseline", "-workloads", "401.bzip2", "-levels", "8", "-quiet", "-accesses", "10", "-seeds", "-2"}, "need at least 1 seed"},
		{[]string{"sim", "-levels", "8", "-accesses", "0"}, "need at least 1 access"},
		{[]string{"sim", "-levels", "8", "-accesses", "-3"}, "need at least 1 access"},
		{[]string{"sim", "-levels", "8", "-trace", empty}, "need at least 1 access"},
		{[]string{"trace", "gen", "-n", "0", "-o", filepath.Join(t.TempDir(), "zero.psot")}, "need at least 1 record"},
		{[]string{"trace", "gen", "-n", "-5", "-o", filepath.Join(t.TempDir(), "neg.psot")}, "need at least 1 record"},
		{[]string{"oracle", "-schemes", "PS-ORAM", "-blocks", "0"}, "need at least 1 block"},
		{[]string{"oracle", "-schemes", "PS-ORAM", "-ops", "0"}, "need at least 1 op"},
		{[]string{"oracle", "-schemes", "PS-ORAM", "-ops", "-1"}, "need at least 1 op"},
	} {
		code, out := runCLI(t, c.args...)
		if code != 1 || !strings.Contains(out, c.want) || strings.Contains(out, "panic") || strings.Contains(out, "---") || strings.Contains(out, "grid:") || strings.Contains(out, "wrote") {
			t.Errorf("psoram %s: exit %d, want 1 and %q; output:\n%s", strings.Join(c.args, " "), code, c.want, out)
		}
	}
	code, out := runCLI(t, "experiments", "-exp", "fig5a", "-accesses", "1", "-levels", "8")
	if code != 0 || !strings.Contains(out, "Figure 5(a)") {
		t.Errorf("experiments -accesses 1: exit %d, output:\n%s", code, out)
	}
	code, out = runCLI(t, "sim", "-levels", "8", "-accesses", "1")
	if code != 0 || !strings.Contains(out, "accesses:        1") {
		t.Errorf("sim -accesses 1: exit %d, output:\n%s", code, out)
	}
}
