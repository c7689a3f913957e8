package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The CLI tests re-execute the test binary into main() (the helper
// process pattern of cmd/seecsim and cmd/figures), so flag validation
// runs through the real entry point.

const mainEnv = "SEEC_AE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runAE(t *testing.T, args ...string) (stdout, stderr string, code int) {
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
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("ae-sc2021 %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestUsageErrors: a bad command line exits 2 before any simulation
// runs. -mesh accepts only "8x8" and "both"; any other value, 16x16
// included, must not fall back to the 8x8 sweep. A negative -j must not
// fall back to every core, and a negative -sim-cycles must not print a
// zero-latency line per run.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-mesh", "16x16"},
		{"-mesh", "4x4"},
		{"-mesh", ""},
		{"-mesh", "Both"},
		{"-j", "-1"},
		{"-sim-cycles", "-5"},
	} {
		stdout, stderr, code := runAE(t, args...)
		if code != 2 {
			t.Errorf("ae-sc2021 %q: exit %d (stderr %q), want usage error 2", args, code, stderr)
		}
		if stdout != "" {
			t.Errorf("ae-sc2021 %q: printed results before failing:\n%s", args, stdout)
		}
		if args[0] == "-mesh" && !strings.Contains(stderr, "want 8x8 or both") {
			t.Errorf("ae-sc2021 %q: stderr %q does not name the valid values", args, stderr)
		}
	}
}
