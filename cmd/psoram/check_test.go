package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
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

// TestRejectsNonPositiveAccesses: a table of zero-access runs would be
// NaN or 0.000 throughout, and a sweep must not swap in its default; both
// subcommands refuse them.
func TestRejectsNonPositiveAccesses(t *testing.T) {
	for _, args := range [][]string{
		{"experiments", "-exp", "fig7", "-accesses", "-5"},
		{"experiments", "-exp", "fig5a", "-accesses", "0"},
		{"sweep", "-schemes", "Baseline", "-workloads", "401.bzip2", "-levels", "8", "-quiet", "-accesses", "0"},
	} {
		code, out := runCLI(t, args...)
		if code != 1 || !strings.Contains(out, "need at least 1 access") || strings.Contains(out, "Figure") || strings.Contains(out, "grid:") {
			t.Errorf("psoram %s: exit %d, output:\n%s", strings.Join(args, " "), code, out)
		}
	}
	code, out := runCLI(t, "experiments", "-exp", "fig5a", "-accesses", "1", "-levels", "8")
	if code != 0 || !strings.Contains(out, "Figure 5(a)") {
		t.Errorf("experiments -accesses 1: exit %d, output:\n%s", code, out)
	}
}
