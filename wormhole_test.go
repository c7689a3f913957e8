package seec_test

import (
	"context"
	"testing"

	"seec"
)

// wormholeConfig: 2-flit VCs holding 5-flit packets (§3.11: wormhole
// with VC depth below the largest packet, single packet per VC).
func wormholeConfig(scheme seec.Scheme) seec.Config {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = scheme
	cfg.Wormhole = true
	cfg.VCDepth = 2
	cfg.VCsPerVNet = 2
	return cfg
}

// TestWormholeBasicFlow: plain XY wormhole must deliver minimally.
func TestWormholeBasicFlow(t *testing.T) {
	cfg := wormholeConfig(seec.SchemeXY)
	cfg.InjectionRate = 0.05
	cfg.SimCycles = 8000
	res, err := seec.RunSyntheticCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled || res.ReceivedPackets < 500 {
		t.Fatalf("wormhole XY broken: stalled=%v recv=%d", res.Stalled, res.ReceivedPackets)
	}
	if res.MisrouteHops != 0 {
		t.Fatalf("wormhole misrouted %d hops", res.MisrouteHops)
	}
}

// TestWormholeSEECBreaksDeadlock: SEEC's §3.11 claim — wormhole plus
// adaptive routing, deadlocks resolved by upgrading head flits whose
// trailing flits then follow in FF mode, with no packet truncation.
func TestWormholeSEECBreaksDeadlock(t *testing.T) {
	for _, scheme := range []seec.Scheme{seec.SchemeSEEC, seec.SchemeMSEEC} {
		cfg := wormholeConfig(scheme)
		cfg.VCsPerVNet = 1
		cfg.Routing = seec.RoutingAdaptive
		cfg.InjectionRate = 0.40
		sim, err := seec.NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 15000; i++ {
			sim.Step()
			if sim.Stalled(4000) {
				t.Fatalf("%s: wormhole network wedged at cycle %d", scheme, sim.Cycle())
			}
		}
		if sim.FFUpgrades() == 0 {
			t.Fatalf("%s: no FF upgrades under saturating wormhole load", scheme)
		}
		res := sim.Snapshot()
		if res.MisrouteHops != 0 {
			t.Fatalf("%s: FF misrouted in wormhole mode", scheme)
		}
		// Invariants must hold with shallow VCs too.
		if err := sim.Net.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
	}
}

// TestWormholeBaselineDeadlocks: the §3.11 configuration without SEEC
// genuinely wedges, proving the previous test exercises resolution.
func TestWormholeBaselineDeadlocks(t *testing.T) {
	cfg := wormholeConfig(seec.SchemeNone)
	cfg.VCsPerVNet = 1
	cfg.Routing = seec.RoutingAdaptive
	cfg.InjectionRate = 0.40
	sim, err := seec.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15000; i++ {
		sim.Step()
		if sim.Stalled(4000) {
			return // wedged as expected
		}
	}
	t.Fatal("unprotected wormhole adaptive routing survived; deadlock test is vacuous")
}

// TestWormholeRejectsMoveBasedSchemes: SPIN/SWAP/DRAIN require whole
// buffered packets and must refuse wormhole mode.
func TestWormholeRejectsMoveBasedSchemes(t *testing.T) {
	for _, scheme := range []seec.Scheme{seec.SchemeSPIN, seec.SchemeSWAP, seec.SchemeDRAIN} {
		cfg := wormholeConfig(scheme)
		if _, err := seec.NewSim(cfg); err == nil {
			t.Errorf("%s accepted wormhole mode", scheme)
		}
	}
}

// TestWormholeDrainsCompletely: after stopping injection, a wormhole
// SEEC network must drain every packet (tails stall across routers and
// must still unwind).
func TestWormholeDrainsCompletely(t *testing.T) {
	cfg := wormholeConfig(seec.SchemeSEEC)
	cfg.Routing = seec.RoutingAdaptive
	cfg.InjectionRate = 0.25
	sim, err := seec.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(5000)
	sim.Synthetic.Pause()
	for i := 0; i < 2_000_000 && !sim.Drained(); i++ {
		sim.Step()
	}
	if !sim.Drained() {
		t.Fatalf("%d packets stranded in wormhole drain", sim.Net.InFlight)
	}
}
