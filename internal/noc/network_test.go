package noc_test

import (
	"testing"

	"seec/internal/noc"
	"seec/internal/traffic"
)

func testConfig(rows, cols int) noc.Config {
	cfg := noc.DefaultConfig()
	cfg.Rows, cfg.Cols = rows, cols
	return cfg
}

// TestXYUniformRandomFlows checks that a plain XY-routed network moves
// packets end to end with sane latency at low load.
func TestXYUniformRandomFlows(t *testing.T) {
	cfg := testConfig(4, 4)
	cfg.Routing = noc.RoutingXY
	src := traffic.NewSynthetic(4, 4, traffic.UniformRandom, 0.02, 7)
	n, err := noc.New(cfg, noc.WithTraffic(src))
	if err != nil {
		t.Fatal(err)
	}
	n.Run(5000)
	c := n.Collector
	if c.ReceivedPackets < 100 {
		t.Fatalf("too few packets received: %d", c.ReceivedPackets)
	}
	avg := c.AvgLatency()
	if avg < 3 || avg > 40 {
		t.Fatalf("implausible low-load latency %.2f cycles", avg)
	}
	// At 2% injection the network must not be saturated: nearly all
	// injected packets should be delivered.
	if c.ReceivedPackets < c.InjectedPackets*9/10 {
		t.Fatalf("lost throughput: received %d of %d", c.ReceivedPackets, c.InjectedPackets)
	}
	t.Logf("avg latency %.2f, received %d", avg, c.ReceivedPackets)
}

// TestDrainToCompletion checks that after injection stops every packet
// eventually leaves the network (no leaks, no phantom in-flight count).
// 65 VCs per port exceed one bitset word, so SA stage 1 scans the
// ports' multi-word saSets instead of the router's single-word view.
func TestDrainToCompletion(t *testing.T) {
	for _, vcs := range []int{4, 65} {
		cfg := testConfig(4, 4)
		cfg.Routing = noc.RoutingXY
		cfg.VCsPerVNet = vcs
		src := traffic.NewSynthetic(4, 4, traffic.UniformRandom, 0.05, 11)
		n, err := noc.New(cfg, noc.WithTraffic(src))
		if err != nil {
			t.Fatal(err)
		}
		n.Run(3000)
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("vcs=%d: %v", vcs, err)
		}
		src.Pause()
		for i := 0; i < 5000 && !n.Drained(); i++ {
			n.Step()
		}
		if !n.Drained() {
			t.Fatalf("vcs=%d: network failed to drain: %d packets in flight", vcs, n.InFlight)
		}
		if n.Collector.ReceivedPackets == 0 {
			t.Fatalf("vcs=%d: no packets delivered", vcs)
		}
	}
}

// TestHopCountsMinimal verifies that minimal routing delivers every
// packet in exactly its Manhattan distance.
func TestHopCountsMinimal(t *testing.T) {
	for _, kind := range []noc.RoutingKind{noc.RoutingXY, noc.RoutingYX, noc.RoutingWestFirst, noc.RoutingObliviousMin, noc.RoutingAdaptiveMin} {
		cfg := testConfig(4, 4)
		cfg.Routing = kind
		src := traffic.NewSynthetic(4, 4, traffic.UniformRandom, 0.02, 3)
		n, err := noc.New(cfg, noc.WithTraffic(src))
		if err != nil {
			t.Fatal(err)
		}
		n.Run(4000)
		if n.Collector.ReceivedPackets == 0 {
			t.Fatalf("%v: no packets", kind)
		}
		if n.Collector.MisrouteHops != 0 {
			t.Errorf("%v: minimal routing misrouted %d hops", kind, n.Collector.MisrouteHops)
		}
	}
}

// TestDeterminism ensures identical seeds give identical results.
func TestDeterminism(t *testing.T) {
	run := func() (int64, float64) {
		cfg := testConfig(4, 4)
		cfg.Routing = noc.RoutingAdaptiveMin
		src := traffic.NewSynthetic(4, 4, traffic.Transpose, 0.05, 99)
		n, err := noc.New(cfg, noc.WithTraffic(src))
		if err != nil {
			t.Fatal(err)
		}
		n.Run(4000)
		return n.Collector.ReceivedPackets, n.Collector.AvgLatency()
	}
	p1, l1 := run()
	p2, l2 := run()
	if p1 != p2 || l1 != l2 {
		t.Fatalf("nondeterministic: (%d, %f) vs (%d, %f)", p1, l1, p2, l2)
	}
}

// TestSelfTraffic checks that a packet destined to its own node crosses
// only the local ports.
func TestSelfTraffic(t *testing.T) {
	cfg := testConfig(4, 4)
	cfg.Routing = noc.RoutingXY
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.NICs[5].Enqueue(noc.PacketSpec{Dst: 5, Class: 0, Size: 5})
	for i := 0; i < 50 && !n.Drained(); i++ {
		n.Step()
	}
	if !n.Drained() {
		t.Fatal("self packet not delivered")
	}
	if got := n.Collector.HopCount.Max(); got != 0 {
		t.Fatalf("self packet took %d hops, want 0", got)
	}
}
