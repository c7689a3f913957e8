package exp

import (
	"testing"

	"seec"
	"seec/internal/plan"
)

// withPlanner attaches a fresh planner matching the scale's knobs, the
// way cmd/figures wires one up.
func withPlanner(t *testing.T, s Scale, o plan.Options) (Scale, *plan.Planner) {
	t.Helper()
	o.Workers = s.Workers
	o.WarmupShare = s.WarmupShare
	p, err := plan.New(o)
	if err != nil {
		t.Fatal(err)
	}
	s.Planner = p
	return s, p
}

// TestPlannerFig8Identity pins the planner's core contract: a figure
// rendered through the reuse-aware schedule (dedup, memoization,
// cost-sorted dispatch) is byte-identical to the direct fan-out — and
// a second render against the planner's warm in-process cache does
// zero simulations while still rendering the same bytes.
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
// identically planned and direct, and a warm planner must not re-run
// the drains.
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

// TestPlannerWarmupShareMatchesLegacy pins the planner's family
// grouping to the legacy Fig-8 warmup-fork convention byte-for-byte:
// same mid-rate base, same shared seed, same fork order — so flipping
// a -warmup-share run over to the planner changes nothing but speed.
// The deflection scheme in the lineup (MinBD) exercises the fallback
// on both paths: the legacy one re-discovers checkpoint.ErrUnsupported
// per curve, the planner excludes it statically; both must land on
// identical independent per-point runs.
func TestPlannerWarmupShareMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Fig8 renders; skipped in -short")
	}
	s := detScale(4)
	s.WarmupShare = true
	legacy := renderAll(Fig8(s)) // no planner: the fig8SharedCells path
	ps, p := withPlanner(t, s, plan.Options{})
	if got := renderAll(Fig8(ps)); got != legacy {
		t.Errorf("planned warmup-share differs from legacy shared path:\n%s", diffLine(legacy, got))
	}
	st := p.Stats()
	if st.WarmupFamilies == 0 || st.WarmupForks == 0 {
		t.Errorf("planner shared nothing: families=%d forks=%d", st.WarmupFamilies, st.WarmupForks)
	}
	if st.WarmupCyclesSaved == 0 {
		t.Errorf("planner reports no warmup cycles saved")
	}
}

// TestPlannerInstrumentedScaleBypassed: with an instrument hook
// attached, the scale must ignore its planner (cache hits execute no
// simulation, which would drop the hook's per-run artifacts).
func TestPlannerInstrumentedScaleBypassed(t *testing.T) {
	s, p := withPlanner(t, detScale(2), plan.Options{})
	s.Instrument = func(_ *seec.Sim) func() { return func() {} }
	_ = renderAll([]*Table{Fig10a(s)})
	if st := p.Stats(); st.Jobs != 0 {
		t.Errorf("instrumented scale still routed %d jobs through the planner", st.Jobs)
	}
}
