package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// The golden tests run the real CLI — flag parsing, generator
// dispatch, CSV rendering — not just the exp package underneath, via
// the helper-process trick: the test binary re-executes itself with
// mainEnv set, and TestMain routes that invocation into main() with
// the command line under test.

const mainEnv = "SEEC_FIGURES_RUN_MAIN"

var update = flag.Bool("update", false, "regenerate the golden files under results/golden/")

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runFigures executes the CLI with the given arguments and returns its
// stdout.
func runFigures(t *testing.T, args ...string) []byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("figures %v: %v\nstderr:\n%s", args, err, stderr.String())
	}
	return stdout.Bytes()
}

// TestGoldenTable1QuickCSV: `figures -fig table1 -scale quick -csv`
// must reproduce results/golden/table1_quick.csv byte for byte. Run
// with -update to regenerate the golden file after an intended
// simulator or formatting change.
func TestGoldenTable1QuickCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates Table 1 at quick scale (~1 min)")
	}
	golden := filepath.Join("..", "..", "results", "golden", "table1_quick.csv")
	got := runFigures(t, "-fig", "table1", "-scale", "quick", "-csv")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s — simulator behavior or formatting changed; "+
			"rerun with -update if intended.\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// TestGoldenOutputWorkerIndependent: the same table generated at -j 1
// and -j 8 must be byte-identical on stdout (the CLI face of the
// determinism contract). Fig. 7 is analytic (no simulations), so this
// also pins the cheap path; the -j flag must still be accepted.
func TestGoldenOutputWorkerIndependent(t *testing.T) {
	a := runFigures(t, "-fig", "7", "-scale", "quick", "-csv", "-j", "1")
	b := runFigures(t, "-fig", "7", "-scale", "quick", "-csv", "-j", "8")
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("-j 1 and -j 8 outputs differ:\n%s\nvs\n%s", a, b)
	}
}

// TestCLIRejectsBadFlags: unknown figures and scales must exit
// non-zero (the AE scripts depend on loud failures, not empty output).
// -warmup-share with an instrument flag is a usage error (exit 2):
// instrumented runs never fork, so the flag would change the numbers.
func TestCLIRejectsBadFlags(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-fig", "nope"},
		{"-scale", "nope"},
		{"-fig", "7", "-j", "-2"},
		{"-fig", "7", "-job-timeout", "-1s"},
		{"-fig", "7", "-max-failures", "-1"},
		{"-fig", "7", "-trace-buf", "-1"},
		{"-fig", "7", "-metrics-window", "-5"},
		{"-fig", "7", "-watchdog", "-5"},
		{"-fig", "7", "-progress", "-1s"},
		{"-fig", "7", "-status", "256.256.256.256:99999"},
		{"-fig", "7", "-warmup-share", "-watchdog", "100"},
		{"-fig", "7", "-warmup-share", "-trace", filepath.Join(t.TempDir(), "t.json")},
	} {
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), mainEnv+"=1")
		err := cmd.Run()
		if err == nil {
			t.Errorf("figures %v unexpectedly succeeded", args)
			continue
		}
		if slices.Contains(args, "-warmup-share") {
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
				t.Errorf("figures %v: %v, want usage error 2", args, err)
			}
		}
	}
}

// TestInstrumentedLedgerCountsRuns: an instrumented run executes on
// the planner whose ledger figures prints, so that ledger and the plan
// manifest count every cell it simulated, and the manifest's wall time
// spans the sweep rather than the manifest write.
func TestInstrumentedLedgerCountsRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates Fig. 10a at quick scale")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe, "-fig", "10a", "-j", "2", "-watchdog", "1000000", "-cache-dir", dir)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("figures: %v\nstderr:\n%s", err, stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("plan: jobs=16 reused=0 simulated=16 ")) {
		t.Errorf("ledger does not count the 16 simulated cells:\n%s", stderr.String())
	}
	b, err := os.ReadFile(filepath.Join(dir, "plan.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		WallSeconds float64 `json:"wall_seconds"`
		Plan        struct {
			Jobs      int64 `json:"jobs"`
			Simulated int64 `json:"simulated"`
		} `json:"plan"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.Plan.Jobs != 16 || m.Plan.Simulated != 16 {
		t.Errorf("manifest plan: jobs=%d simulated=%d, want 16/16", m.Plan.Jobs, m.Plan.Simulated)
	}
	if m.WallSeconds < 0.05 {
		t.Errorf("manifest wall_seconds=%g does not span the sweep", m.WallSeconds)
	}
}
