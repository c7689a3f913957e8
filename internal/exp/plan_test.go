package exp

import (
	"os"
	"sync/atomic"
	"testing"

	"seec"
	"seec/internal/plan"
)

// withPlanner attaches a fresh planner over the scale's worker pool,
// the way cmd/figures wires one up.
func withPlanner(t *testing.T, s Scale, o plan.Options) (Scale, *plan.Planner) {
	t.Helper()
	o.Workers = s.Workers
	p, err := plan.New(o)
	if err != nil {
		t.Fatal(err)
	}
	s.Planner = p
	return s, p
}

// TestPlannerFig8Identity pins the planner's core contract: a figure
// rendered through the reuse-aware schedule (dedup, memoization,
// cost-sorted dispatch) is byte-identical to a render where every cell
// simulates (no planner attached) — and a second render against the
// planner's warm in-process cache does zero simulations while still
// rendering the same bytes.
func TestPlannerFig8Identity(t *testing.T) {
	direct := renderAll(Fig8(detScale(4)))
	s, p := withPlanner(t, detScale(4), plan.Options{})
	if got := renderAll(Fig8(s)); got != direct {
		t.Errorf("planned Fig8 differs from direct:\n%s", diffLine(direct, got))
	}
	cold := p.Stats().Simulated
	if cold == 0 {
		t.Fatal("cold planned render simulated nothing")
	}
	if got := renderAll(Fig8(s)); got != direct {
		t.Errorf("warm planned Fig8 differs from direct:\n%s", diffLine(direct, got))
	}
	if warm := p.Stats().Simulated; warm != cold {
		t.Errorf("warm render simulated %d new jobs, want 0", warm-cold)
	}
}

// TestPlannerFig12Identity covers a second generator shape (routing
// variants, two tables from one flat batch) against the same contract.
func TestPlannerFig12Identity(t *testing.T) {
	direct := renderAll(Fig12(detScale(4)))
	s, _ := withPlanner(t, detScale(4), plan.Options{})
	if got := renderAll(Fig12(s)); got != direct {
		t.Errorf("planned Fig12 differs from direct:\n%s", diffLine(direct, got))
	}
}

// TestPlannerTable3Identity covers the derived-measurement path
// (plan.Memoize under a measurement key): the drain study must render
// identically with and without reuse, and a warm planner must not
// re-run the drains.
func TestPlannerTable3Identity(t *testing.T) {
	direct := renderAll([]*Table{Table3(detScale(4))})
	s, p := withPlanner(t, detScale(4), plan.Options{})
	if got := renderAll([]*Table{Table3(s)}); got != direct {
		t.Errorf("planned Table3 differs from direct:\n%s", diffLine(direct, got))
	}
	cold := p.Stats().Simulated
	if got := renderAll([]*Table{Table3(s)}); got != direct {
		t.Errorf("warm planned Table3 differs from direct:\n%s", diffLine(direct, got))
	}
	if warm := p.Stats().Simulated; warm != cold {
		t.Errorf("warm Table3 simulated %d new measurements, want 0", warm-cold)
	}
}

// warmupShareGolden is Fig8(detScale(4)) with warmup sharing as the
// Fig. 8-only warmup-fork path rendered it before the planner became
// the only way to run it: one family per (mesh, pattern, scheme) curve,
// warmed at the mid-rate member under SweepSeed("warmup-share"), forks
// in rate order, deflection columns run independently.
const warmupShareGolden = "testdata/fig8_warmup_share.txt"

// TestPlannerWarmupShareMatchesLegacy pins the planner's family
// grouping to that warmup-fork convention byte for byte: same mid-rate
// base, same shared seed, same fork order. The deflection scheme in the
// lineup (MinBD) exercises the fallback to independent per-point runs.
func TestPlannerWarmupShareMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("a full Fig8 render; skipped in -short")
	}
	want, err := os.ReadFile(warmupShareGolden)
	if err != nil {
		t.Fatal(err)
	}
	s, p := withPlanner(t, detScale(4), plan.Options{WarmupShare: true})
	if got := renderAll(Fig8(s)); got != string(want) {
		t.Errorf("planned warmup-share differs from %s; an intended simulator change must "+
			"replace that file with this render:\n%s", warmupShareGolden, diffLine(string(want), got))
	}
	st := p.Stats()
	if st.WarmupFamilies == 0 || st.WarmupForks == 0 {
		t.Errorf("planner shared nothing: families=%d forks=%d", st.WarmupFamilies, st.WarmupForks)
	}
	if st.WarmupCyclesSaved == 0 {
		t.Errorf("planner reports no warmup cycles saved")
	}
}

// TestPlannerInstrumentedScaleBypassed pins the instrument rule: with
// an instrument hook attached, every cell simulates afresh — no cache
// read or write on the attached planner, no dedup and no warmup fork —
// so the hook fires once per cell and the numbers equal a plain run's.
func TestPlannerInstrumentedScaleBypassed(t *testing.T) {
	s, p := withPlanner(t, detScale(2), plan.Options{WarmupShare: true})
	_ = renderAll([]*Table{Fig10a(s)})
	warm := p.Stats()
	if warm.WarmupForks == 0 {
		t.Fatalf("warming render forked nothing: %+v", warm)
	}
	var fired atomic.Int64
	s.Instrument = func(_ *seec.Sim) func() {
		fired.Add(1)
		return func() {}
	}
	got := renderAll([]*Table{Fig10a(s)})
	if n, want := fired.Load(), int64(2*len(s.Rates)); n != want {
		t.Errorf("instrument fired %d times, want once per cell (%d)", n, want)
	}
	if st := p.Stats(); st != warm {
		t.Errorf("instrumented render touched the attached planner:\nbefore %+v\nafter  %+v", warm, st)
	}
	if plain := renderAll([]*Table{Fig10a(detScale(2))}); got != plain {
		t.Errorf("instrumented render differs from a plain one:\n%s", diffLine(plain, got))
	}
}

// TestFig9ProbesCarryScaleHooks: every saturation-search probe runs
// through the scale's planner with the scale's instrument and
// telemetry hooks attached, like any other cell.
func TestFig9ProbesCarryScaleHooks(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation sweeps are slow")
	}
	s := detScale(2)
	s.SatCycles = 300
	var inst, tel atomic.Int64
	s.Instrument = func(*seec.Sim) func() { inst.Add(1); return nil }
	s.RunEvents = func(*seec.Sim) func(seec.RunEvent) { tel.Add(1); return nil }
	_ = Fig9(s)
	if inst.Load() == 0 || tel.Load() != inst.Load() {
		t.Fatalf("Fig. 9 probes: %d instrument calls, %d telemetry hooks; want the same nonzero count",
			inst.Load(), tel.Load())
	}
}
