package main

import (
	"sync/atomic"
	"time"

	"seec/internal/checkpoint"
	"seec/internal/noc"
)

// The traced run times a simulation's scheme hooks and traffic source
// by wrapping Sim.Net.Scheme and Sim.Net.Traffic. The network probes
// both for optional interfaces — idle fast-forward asks
// noc.QuiescentReporter and noc.IdleReporter, the sharded step asks
// noc.ConcurrentGenerator and noc.ConcurrentDeliverer, checkpoints ask
// checkpoint.Stateful — so a wrapper that hid them would silently turn
// those paths off and change what is being measured. The boolean
// reporters forward with the answer "no" when the wrapped value does
// not implement them, which is exactly how the network treats a value
// without the method. checkpoint.Stateful cannot be answered that way,
// so it is forwarded by a second wrapper type, used only when the
// wrapped value is Stateful.

// timedScheme forwards noc.Scheme and sums the time spent in its
// per-cycle hooks.
type timedScheme struct {
	inner noc.Scheme
	ns    *atomic.Int64
}

// statefulScheme is timedScheme for a checkpointable scheme.
type statefulScheme struct {
	*timedScheme
	checkpoint.Stateful
}

// wrapScheme returns s wrapped so that PreRouter/PostRouter time
// accumulates into *ns.
func wrapScheme(s noc.Scheme, ns *atomic.Int64) noc.Scheme {
	t := &timedScheme{inner: s, ns: ns}
	if st, ok := s.(checkpoint.Stateful); ok {
		return statefulScheme{t, st}
	}
	return t
}

func (t *timedScheme) Name() string                { return t.inner.Name() }
func (t *timedScheme) Attach(n *noc.Network) error { return t.inner.Attach(n) }

func (t *timedScheme) PreRouter(n *noc.Network) {
	start := time.Now()
	t.inner.PreRouter(n)
	t.ns.Add(int64(time.Since(start)))
}

func (t *timedScheme) PostRouter(n *noc.Network) {
	start := time.Now()
	t.inner.PostRouter(n)
	t.ns.Add(int64(time.Since(start)))
}

func (t *timedScheme) Quiescent() bool {
	q, ok := t.inner.(noc.QuiescentReporter)
	return ok && q.Quiescent()
}

// timedTraffic forwards noc.TrafficSource and sums the time spent in
// Generate (sampled, see genSample) and Deliver. The sum is atomic because a source that allows
// concurrent generation is called from every shard at once.
type timedTraffic struct {
	inner noc.TrafficSource
	ns    *atomic.Int64
}

// statefulTraffic is timedTraffic for a checkpointable source.
type statefulTraffic struct {
	*timedTraffic
	checkpoint.Stateful
}

// wrapTraffic returns src wrapped so that Generate/Deliver time
// accumulates into *ns.
func wrapTraffic(src noc.TrafficSource, ns *atomic.Int64) noc.TrafficSource {
	t := &timedTraffic{inner: src, ns: ns}
	if st, ok := src.(checkpoint.Stateful); ok {
		return statefulTraffic{t, st}
	}
	return t
}

// genSample is the share of nodes whose Generate calls are timed: the
// network calls Generate once per node per cycle, and reading the clock
// around every call would cost more than the calls. Timing every
// genSample-th node and scaling by genSample assumes nodes cost alike,
// which holds for the synthetic patterns.
const genSample = 8

func (t *timedTraffic) Generate(cycle int64, node int) []noc.PacketSpec {
	if node%genSample != 0 {
		return t.inner.Generate(cycle, node)
	}
	start := time.Now()
	out := t.inner.Generate(cycle, node)
	t.ns.Add(genSample * int64(time.Since(start)))
	return out
}

func (t *timedTraffic) Deliver(cycle int64, pkt *noc.Packet) bool {
	start := time.Now()
	ok := t.inner.Deliver(cycle, pkt)
	t.ns.Add(int64(time.Since(start)))
	return ok
}

func (t *timedTraffic) Idle() bool {
	r, ok := t.inner.(noc.IdleReporter)
	return ok && r.Idle()
}

func (t *timedTraffic) ConcurrentGenerate() bool {
	c, ok := t.inner.(noc.ConcurrentGenerator)
	return ok && c.ConcurrentGenerate()
}

func (t *timedTraffic) ConcurrentDeliver() bool {
	c, ok := t.inner.(noc.ConcurrentDeliverer)
	return ok && c.ConcurrentDeliver()
}
