package noc_test

import (
	"strings"
	"testing"

	"seec/internal/noc"
	"seec/internal/traffic"
)

// The auditor itself must detect corruption, or the invariant tests
// elsewhere prove nothing. Each case perturbs one piece of
// flow-control state on a live network and expects CheckInvariants to
// object.

func corruptibleNet(t *testing.T) *noc.Network {
	t.Helper()
	cfg := noc.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Routing = noc.RoutingXY
	src := traffic.NewSynthetic(4, 4, traffic.UniformRandom, 0.15, 301)
	n, err := noc.New(cfg, noc.WithTraffic(src))
	if err != nil {
		t.Fatal(err)
	}
	n.Run(2000)
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("network inconsistent before corruption: %v", err)
	}
	return n
}

func TestAuditDetectsCreditLeak(t *testing.T) {
	n := corruptibleNet(t)
	n.Routers[5].Out[noc.East].VCs[0].Credits++
	err := n.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "credit leak") {
		t.Fatalf("leaked credit not detected: %v", err)
	}
}

func TestAuditDetectsCreditLoss(t *testing.T) {
	n := corruptibleNet(t)
	n.Routers[5].Out[noc.East].VCs[0].Credits--
	if n.CheckInvariants() == nil {
		t.Fatal("lost credit not detected")
	}
}

func TestAuditDetectsPhantomBusy(t *testing.T) {
	n := corruptibleNet(t)
	// Find a mirror that is currently free and claim it.
	for _, r := range n.Routers {
		for d := noc.North; d <= noc.West; d++ {
			out := r.Out[d]
			if out == nil {
				continue
			}
			for v := range out.VCs {
				if !out.VCs[v].Busy && out.VCs[v].Credits == n.Cfg.VCDepth {
					out.VCs[v].Busy = true
					err := n.CheckInvariants()
					if err == nil || !strings.Contains(err.Error(), "busy mismatch") {
						t.Fatalf("phantom busy not detected: %v", err)
					}
					return
				}
			}
		}
	}
	t.Skip("no free mirror found to corrupt")
}

func TestAuditDetectsEjectionCorruption(t *testing.T) {
	n := corruptibleNet(t)
	n.Routers[3].Out[noc.Local].VCs[0].Credits -= 2
	if n.CheckInvariants() == nil {
		t.Fatal("ejection credit corruption not detected")
	}
}

func TestAuditDetectsNICMirrorCorruption(t *testing.T) {
	n := corruptibleNet(t)
	n.NICs[7].LocalMirror[0].Credits++
	if n.CheckInvariants() == nil {
		t.Fatal("NIC mirror corruption not detected")
	}
}

func TestAuditDetectsStaleTailBit(t *testing.T) {
	n := corruptibleNet(t)
	// Grow the packet of a buffered tail flit: its tail bit, fixed when
	// the flit was built, no longer matches Seq == Size-1.
	for _, r := range n.Routers {
		for _, in := range r.In {
			if in == nil {
				continue
			}
			for _, vc := range in.VCs {
				for i := 0; i < vc.Len(); i++ {
					if f := vc.At(i); f.IsTail() {
						f.Pkt.Size++
						err := n.CheckInvariants()
						if err == nil || !strings.Contains(err.Error(), "tail bit") {
							t.Fatalf("stale tail bit not detected: %v", err)
						}
						return
					}
				}
			}
		}
	}
	t.Skip("no buffered tail flit found to corrupt")
}
