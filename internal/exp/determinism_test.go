package exp

import (
	"os"
	"strings"
	"testing"
)

// The parallel-execution contract: every generator fans its
// simulations out across a worker pool, every job derives its RNG seed
// from its own coordinates (Config.SweepSeed), and therefore the
// rendered tables are byte-identical at any worker count. These tests
// enforce the contract — any hidden shared state in internal/rng,
// internal/stats or scheme globals shows up as a byte diff (and as a
// report under -race).

// renderAll renders a generator's tables to one string for comparison.
func renderAll(tabs []*Table) string {
	var sb strings.Builder
	for _, tab := range tabs {
		tab.Render(&sb)
	}
	return sb.String()
}

// detScale is small enough to regenerate several times per test run
// but still covers every scheme column and multiple rates.
func detScale(workers int) Scale {
	return Scale{
		SimCycles:    1500,
		MeshSizes:    []int{4},
		Rates:        []float64{0.05, 0.15, 0.25},
		AppTxns:      300,
		Apps:         []string{"blackscholes"},
		SatCycles:    1500,
		MaxAppCycles: 500_000,
		Workers:      workers,
	}
}

// diffLine returns the first line where a and b differ, for a readable
// failure message.
func diffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) {
			return "serial output longer: " + al[i]
		}
		if al[i] != bl[i] {
			return "serial: " + al[i] + "\nparallel: " + bl[i]
		}
	}
	if len(bl) > len(al) {
		return "parallel output longer: " + bl[len(al)]
	}
	return ""
}

// TestFig8ParallelDeterminism: Fig. 8 must render byte-identically at
// -j 1, 2, 4 and 8.
func TestFig8ParallelDeterminism(t *testing.T) {
	serial := renderAll(Fig8(detScale(1)))
	for _, j := range []int{2, 4, 8} {
		if got := renderAll(Fig8(detScale(j))); got != serial {
			t.Fatalf("Fig8 output differs at workers=%d:\n%s", j, diffLine(serial, got))
		}
	}
}

// TestFig12And13ParallelDeterminism covers the other latency-curve
// generators (different fan-out shapes: per-variant and per-VC-width
// columns).
func TestFig12And13ParallelDeterminism(t *testing.T) {
	serial12 := renderAll(Fig12(detScale(1)))
	serial13 := renderAll(Fig13(detScale(1)))
	for _, j := range []int{4} {
		if got := renderAll(Fig12(detScale(j))); got != serial12 {
			t.Fatalf("Fig12 output differs at workers=%d:\n%s", j, diffLine(serial12, got))
		}
		if got := renderAll(Fig13(detScale(j))); got != serial13 {
			t.Fatalf("Fig13 output differs at workers=%d:\n%s", j, diffLine(serial13, got))
		}
	}
}

// TestFig9ParallelDeterminism: the saturation searches nest a
// fixed-shape concurrent probe inside the cell fan-out; the measured
// knees must not depend on either worker count.
func TestFig9ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation sweeps are slow")
	}
	serial := renderAll([]*Table{Fig9(detScale(1))})
	if got := renderAll([]*Table{Fig9(detScale(4))}); got != serial {
		t.Fatalf("Fig9 output differs at workers=4:\n%s", diffLine(serial, got))
	}
}

// TestFig14ParallelDeterminism: application runs (coherence engine,
// per-run seed tagged with the app name) must be order-independent
// too, including the runtime column normalized against the XY row.
func TestFig14ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("application sweeps are slow")
	}
	serial := renderAll([]*Table{Fig14(detScale(1))})
	if got := renderAll([]*Table{Fig14(detScale(4))}); got != serial {
		t.Fatalf("Fig14 output differs at workers=4:\n%s", diffLine(serial, got))
	}
}

// TestFig8QuickScaleDeterminism is the full-strength contract check:
// exp.Fig8 at the real Quick scale (the default CLI run: 4x4 and 8x8
// meshes, all four patterns, every scheme) at -j 8 must equal the fig8
// tables of the checked-in results/figures_quick.txt, which
// `make figures` rendered at another worker count. It is the slowest
// test in the repository (a complete Fig. 8 regeneration), so it skips
// under -short and under -race; the trimmed determinism tests above
// cover those configurations.
func TestFig8QuickScaleDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates Fig. 8 at quick scale; skipped in -short")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; trimmed variants cover -race")
	}
	const record = "../../results/figures_quick.txt"
	b, err := os.ReadFile(record)
	if err != nil {
		t.Fatal(err)
	}
	// The record's fig8 tables, each from its "== fig8:" line through
	// the blank line Render ends it with.
	var want strings.Builder
	in := false
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if strings.HasPrefix(line, "== fig8:") {
			in = true
		}
		if in {
			want.WriteString(line)
		}
		if line == "\n" {
			in = false
		}
	}
	s := Quick()
	s.Workers = 8
	if got := renderAll(Fig8(s)); got != want.String() {
		t.Fatalf("Fig8(Quick()) at -j 8 differs from the fig8 tables of %s "+
			"(run `make figures` if the change is intended):\n%s", record, diffLine(want.String(), got))
	}
}
