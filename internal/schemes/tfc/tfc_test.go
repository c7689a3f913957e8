package tfc_test

import (
	"testing"

	"seec/internal/noc"
	"seec/internal/schemes/tfc"
	"seec/internal/traffic"
)

func tfcNet(t *testing.T, rate float64, seed uint64) (*noc.Network, *traffic.Synthetic) {
	t.Helper()
	cfg := noc.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Routing = noc.RoutingWestFirst
	cfg.VCsPerVNet = 2
	src := traffic.NewSynthetic(4, 4, traffic.UniformRandom, rate, seed)
	n, err := noc.New(cfg, noc.WithTraffic(src), noc.WithVA(tfc.Policy{}))
	if err != nil {
		t.Fatal(err)
	}
	return n, src
}

// TestTFCDeadlockFree: TFC rides on west-first, so it must never wedge
// even far past saturation.
func TestTFCDeadlockFree(t *testing.T) {
	n, _ := tfcNet(t, 0.45, 51)
	for i := 0; i < 20000; i++ {
		n.Step()
		if n.Stalled(4000) {
			t.Fatalf("TFC deadlocked at %d", n.Cycle)
		}
	}
}

// TestTFCMinimal: token steering never misroutes.
func TestTFCMinimal(t *testing.T) {
	n, src := tfcNet(t, 0.2, 53)
	n.Run(8000)
	if n.Collector.MisrouteHops != 0 {
		t.Fatalf("TFC misrouted %d hops", n.Collector.MisrouteHops)
	}
	src.Pause()
	for i := 0; i < 100000 && !n.Drained(); i++ {
		n.Step()
	}
	if !n.Drained() {
		t.Fatal("TFC failed to drain")
	}
}

// TestTFCMatchesWestFirstLowLoad: with the optimized 1-cycle baseline
// router, TFC shows no low-load latency gain over plain west-first
// (the paper's footnote 4) — their zero-load latencies must be within
// a cycle of each other.
func TestTFCMatchesWestFirstLowLoad(t *testing.T) {
	run := func(pol noc.VAPolicy) float64 {
		cfg := noc.DefaultConfig()
		cfg.Rows, cfg.Cols = 4, 4
		cfg.Routing = noc.RoutingWestFirst
		src := traffic.NewSynthetic(4, 4, traffic.UniformRandom, 0.01, 55)
		opts := []noc.Option{noc.WithTraffic(src)}
		if pol != nil {
			opts = append(opts, noc.WithVA(pol))
		}
		n, err := noc.New(cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		n.Run(15000)
		return n.Collector.AvgLatency()
	}
	wf := run(nil)
	tf := run(tfc.Policy{})
	if diff := tf - wf; diff > 1.0 || diff < -1.0 {
		t.Fatalf("TFC low-load latency %.2f vs west-first %.2f; footnote 4 says they match", tf, wf)
	}
}

// TestTFCTokenSteering: with one direction's neighborhood congested,
// TFC must prefer the token-rich direction.
func TestTFCTokenSteering(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Routing = noc.RoutingWestFirst
	n, err := noc.New(cfg, noc.WithVA(tfc.Policy{}))
	if err != nil {
		t.Fatal(err)
	}
	r := n.Routers[0] // packet to 15: East or North, both west-first-legal
	for v := range r.Out[noc.East].VCs {
		r.Out[noc.East].VCs[v].Busy = true
	}
	vc := noc.NewVC(0, 5)
	p := &noc.Packet{Dst: 15, Class: 0, Size: 1}
	vc.Activate(p, 0)
	vc.Push(noc.NewFlit(p, 0))
	a, ok := tfc.Policy{}.Select(r, r.In[noc.Local], vc)
	if !ok {
		t.Fatal("no assignment despite free North VCs")
	}
	if a.OutPort != noc.North {
		t.Fatalf("TFC chose %s over token-rich North", noc.DirName(a.OutPort))
	}
}
