package noc

import (
	"bytes"
	"testing"

	"seec/internal/fault"
	"seec/internal/rng"
)

// loadSource mimics traffic.Synthetic without the import cycle:
// per-node PRNG streams, Bernoulli injection, uniform-random
// destinations, the default 1/5-flit size mix. Paused, it reports
// idle, so Run and Drain may fast-forward over it.
type loadSource struct {
	rngs    []*rng.Rand
	scratch [][]PacketSpec
	nodes   int
	rate    float64
	paused  bool
}

func newLoadSource(nodes int, rate float64, seed uint64) *loadSource {
	base := rng.New(seed ^ 0xA5EEC)
	s := &loadSource{
		nodes: nodes, rate: rate,
		rngs:    make([]*rng.Rand, nodes),
		scratch: make([][]PacketSpec, nodes),
	}
	for i := range s.rngs {
		s.rngs[i] = base.Split()
	}
	return s
}

func (s *loadSource) Generate(cycle int64, node int) []PacketSpec {
	out := s.scratch[node][:0]
	r := s.rngs[node]
	if s.paused || !r.Bool(s.rate) {
		return out
	}
	size := 1
	if r.Float64() >= 0.5 {
		size = 5
	}
	out = append(out, PacketSpec{Dst: r.Intn(s.nodes), Class: 0, Size: size})
	s.scratch[node] = out
	return out
}

func (s *loadSource) Deliver(cycle int64, pkt *Packet) bool { return true }
func (s *loadSource) Idle() bool                            { return s.paused }

// TestIdleFastForwardExact drives a drain whose only remaining events
// are retransmission timeouts thousands of cycles out, with idle
// fast-forward on and off, and requires byte-identical end states —
// the skip must be exact, not approximate — while doing strictly
// fewer Step calls.
func TestIdleFastForwardExact(t *testing.T) {
	build := func() (*Network, *loadSource) {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = 4, 4
		cfg.Seed = 9
		src := newLoadSource(16, 0.05, 9)
		n, err := New(cfg, WithTraffic(src))
		if err != nil {
			t.Fatal(err)
		}
		// Silent drops recover by timeout only: after the live traffic
		// drains, the network sits provably idle until the injector's
		// next retransmission deadline — the exact gap trySkip elides.
		n.SetFaults(fault.NewInjector(fault.Spec{DropRate: 0.01, Timeout: 2000}, 5))
		return n, src
	}
	drain := func(n *Network, src *loadSource, skip bool) (steps int64) {
		n.Run(400)
		src.paused = true
		const horizon = 60_000
		for !n.Drained() && n.Cycle < horizon {
			if skip && n.trySkip(horizon) {
				continue
			}
			n.Step()
			steps++
		}
		if !n.Drained() {
			t.Fatal("drain did not complete inside the horizon")
		}
		return steps
	}

	a, sa := build()
	stepsOff := drain(a, sa, false)
	b, sb := build()
	stepsOn := drain(b, sb, true)

	if a.Cycle != b.Cycle {
		t.Fatalf("final cycles differ: %d (no skip) vs %d (skip)", a.Cycle, b.Cycle)
	}
	var bufA, bufB bytes.Buffer
	a.WriteSnapshot(&bufA)
	b.WriteSnapshot(&bufB)
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("end snapshots differ:\n--- no skip ---\n%s\n--- skip ---\n%s", bufA.Bytes(), bufB.Bytes())
	}
	if fa, fb := a.Faults.Stats(), b.Faults.Stats(); fa != fb {
		t.Fatalf("fault stats differ:\nno skip: %+v\nskip:    %+v", fa, fb)
	}
	if a.Energy.AvgLinkEnergy() != b.Energy.AvgLinkEnergy() ||
		a.Energy.PeakLinkEnergy() != b.Energy.PeakLinkEnergy() {
		t.Fatalf("energy meters differ:\nno skip: avg=%v peak=%v\nskip:    avg=%v peak=%v",
			a.Energy.AvgLinkEnergy(), a.Energy.PeakLinkEnergy(),
			b.Energy.AvgLinkEnergy(), b.Energy.PeakLinkEnergy())
	}
	if stepsOn >= stepsOff {
		t.Fatalf("fast-forward executed %d steps, no-skip %d — nothing was skipped", stepsOn, stepsOff)
	}
}
