package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The CLI tests re-execute the test binary into main() (the same
// helper-process trick cmd/figures uses), so flag validation and output
// formatting are exercised through the real entry point.

const mainEnv = "SEEC_SEECSIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runSeecsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err = cmd.Run()
	code = 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("seecsim %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestUsageErrors: malformed flag combinations must die with the
// conventional usage status (2) before any simulation starts.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-topology", "8"},
		{"-topology", "1x8"},
		{"-topology", "8x8x9"},
		{"-topology", "8x8junk"},
		{"-topology", "4x4 "},
		{"-topology", "+8x8"},
		{"-topology", "x8"},
		{"-vcs-per-vnet", "0"},
		{"-injectionrate", "-0.1"},
		{"-injectionrate", "1.5"},
		{"-sim-cycles", "-1"},
		{"-warmup", "-1"},
		{"-app", "fft", "-txns", "0"},
		{"-trace-buf", "-1"},
		{"-metrics-window", "-1"},
		{"-watchdog", "-1"},
		{"-faults", "link:2"},
		{"-faults", "wat:1"},
		{"-faults", "link:0.001", "-scheme", "chipper"},
		{"-faults", "link:0.001", "-scheme", "minbd"},
		{"-faults", "link:0.001", "-app", "fft"},
	} {
		_, stderr, code := runSeecsim(t, args...)
		if code != 2 {
			t.Errorf("seecsim %v: exit %d (stderr %q), want usage error 2", args, code, stderr)
		}
	}
}

// TestFaultedRunOutput: a tiny faulted run must succeed and report the
// fault counters on stdout.
func TestFaultedRunOutput(t *testing.T) {
	stdout, stderr, code := runSeecsim(t,
		"-topology", "4x4", "-scheme", "seec", "-synthetic", "uniform_random",
		"-injectionrate", "0.05", "-sim-cycles", "500", "-warmup", "100",
		"-faults", "link:0.01,timeout:256")
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "faults=\"link:0.01,timeout:256\"") ||
		!strings.Contains(stdout, "retransmits=") {
		t.Fatalf("fault counters missing from output:\n%s", stdout)
	}
}
