package seec_test

import (
	"context"
	"fmt"
	"testing"

	"seec"
)

// creditFlowSchemes are the schemes built on the credit-flow router
// (the deflection networks have no credits to audit).
func creditFlowSchemes() []seec.Scheme {
	return []seec.Scheme{seec.SchemeXY, seec.SchemeWestFirst, seec.SchemeTFC,
		seec.SchemeEscape, seec.SchemeSPIN, seec.SchemeSWAP, seec.SchemeDRAIN,
		seec.SchemeSEEC, seec.SchemeMSEEC}
}

// TestInvariantsUnderEveryScheme drives each scheme at three loads —
// light, near saturation, far past saturation — and audits the full
// flow-control bookkeeping every 500 cycles. SPIN spins, SWAP swaps,
// DRAIN rotations and Free-Flow worms all move packets outside the
// regular pipeline; any credit they leak fails here.
func TestInvariantsUnderEveryScheme(t *testing.T) {
	for _, scheme := range creditFlowSchemes() {
		for _, rate := range []float64{0.05, 0.15, 0.40} {
			t.Run(fmt.Sprintf("%s/%.2f", scheme, rate), func(t *testing.T) {
				cfg := seec.DefaultConfig()
				cfg.Rows, cfg.Cols = 4, 4
				cfg.Scheme = scheme
				cfg.VCsPerVNet = 2
				cfg.InjectionRate = rate
				sim, err := seec.NewSim(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 8000; i++ {
					sim.Step()
					if i%500 == 0 {
						if err := sim.Net.CheckInvariants(); err != nil {
							t.Fatalf("cycle %d: %v", sim.Cycle(), err)
						}
					}
				}
				if err := sim.Net.CheckInvariants(); err != nil {
					t.Fatalf("final: %v", err)
				}
			})
		}
	}
}

// TestInvariantsUnderCoherence repeats the audit with six-class
// protocol traffic and consumption backpressure, where ejection-VC
// bookkeeping (reservations, refusals, FF deposits) is most stressed.
func TestInvariantsUnderCoherence(t *testing.T) {
	for _, scheme := range []seec.Scheme{seec.SchemeXY, seec.SchemeSEEC, seec.SchemeMSEEC, seec.SchemeDRAIN} {
		t.Run(string(scheme), func(t *testing.T) {
			cfg := seec.DefaultConfig()
			cfg.Rows, cfg.Cols = 4, 4
			cfg.Scheme = scheme
			cfg.VCsPerVNet = 2
			if scheme == seec.SchemeXY {
				cfg.Routing = seec.RoutingXY
			}
			sim, err := seec.NewAppSim(cfg, "canneal", 4000)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 60000 && !sim.App.Done(); i++ {
				sim.Step()
				if i%1000 == 0 {
					if err := sim.Net.CheckInvariants(); err != nil {
						t.Fatalf("cycle %d: %v", sim.Cycle(), err)
					}
				}
			}
			if err := sim.Net.CheckInvariants(); err != nil {
				t.Fatalf("final: %v", err)
			}
		})
	}
}

// TestEverySchemeDrains drives each scheme past saturation, stops
// injection and requires a complete drain with consistent bookkeeping
// afterwards — no packet may be stranded by a scheme's interventions.
func TestEverySchemeDrains(t *testing.T) {
	for _, scheme := range creditFlowSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			if scheme == seec.SchemeNone {
				t.Skip("unprotected adaptive routing deadlocks by design")
			}
			cfg := seec.DefaultConfig()
			cfg.Rows, cfg.Cols = 4, 4
			cfg.Scheme = scheme
			cfg.VCsPerVNet = 2
			cfg.InjectionRate = 0.30
			sim, err := seec.NewSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(4000)
			sim.Synthetic.Pause()
			limit := int64(3_000_000)
			for sim.Cycle() < limit && !sim.Drained() {
				sim.Step()
			}
			if !sim.Drained() {
				t.Fatalf("%d packets stranded", sim.Net.InFlight)
			}
			sim.Run(5)
			if err := sim.Net.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeterminismAcrossSchemes: identical seeds must give identical
// results for every scheme (the two-phase cycle loop plus fixed
// iteration order guarantee it).
func TestDeterminismAcrossSchemes(t *testing.T) {
	for _, scheme := range creditFlowSchemes() {
		run := func() (int64, float64, float64) {
			cfg := seec.DefaultConfig()
			cfg.Rows, cfg.Cols = 4, 4
			cfg.Scheme = scheme
			cfg.InjectionRate = 0.25
			cfg.SimCycles = 4000
			res, err := seec.RunSyntheticCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.ReceivedPackets, res.AvgLatency, res.AvgLinkEnergy
		}
		p1, l1, e1 := run()
		p2, l2, e2 := run()
		if p1 != p2 || l1 != l2 || e1 != e2 {
			t.Errorf("%s nondeterministic: (%d %f %f) vs (%d %f %f)", scheme, p1, l1, e1, p2, l2, e2)
		}
	}
}

// TestDeflectionDeterminism covers the deflection networks too.
func TestDeflectionDeterminism(t *testing.T) {
	for _, scheme := range []seec.Scheme{seec.SchemeCHIPPER, seec.SchemeMinBD} {
		run := func() (int64, float64) {
			cfg := seec.DefaultConfig()
			cfg.Rows, cfg.Cols = 4, 4
			cfg.Scheme = scheme
			cfg.InjectionRate = 0.2
			cfg.SimCycles = 4000
			res, err := seec.RunSyntheticCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.ReceivedPackets, res.AvgLatency
		}
		p1, l1 := run()
		p2, l2 := run()
		if p1 != p2 || l1 != l2 {
			t.Errorf("%s nondeterministic", scheme)
		}
	}
}
