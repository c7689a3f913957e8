// Package traffic provides the synthetic workload generators used in
// the paper's evaluation (uniform random, bit rotation, shuffle,
// transpose, ...) with the Table 4 packet-size mix (1-flit and 5-flit
// packets) and a Bernoulli open-loop injection process.
package traffic

import (
	"fmt"
	"math/bits"

	"seec/internal/noc"
	"seec/internal/rng"
)

// Pattern is a synthetic destination mapping.
type Pattern int

const (
	// UniformRandom sends each packet to a uniformly random node.
	UniformRandom Pattern = iota
	// BitComplement sends node s to ^s (within the node-id mask).
	BitComplement
	// BitReverse sends node s to the bit-reversal of s.
	BitReverse
	// BitRotation sends node s to s rotated right by one bit.
	BitRotation
	// Shuffle sends node s to s rotated left by one bit.
	Shuffle
	// Transpose sends (x, y) to (y, x).
	Transpose
	// Tornado sends (x, y) to (x + ceil(k/2) - 1 mod k, y).
	Tornado
	// Neighbor sends (x, y) to (x + 1 mod k, y).
	Neighbor
	// HotSpot sends a fraction of traffic to a single hot node and the
	// rest uniformly at random.
	HotSpot
)

// ParsePattern maps the names used by the AE appendix scripts to
// patterns.
func ParsePattern(s string) (Pattern, error) {
	switch s {
	case "uniform_random", "uniform-random", "ur":
		return UniformRandom, nil
	case "bit_complement", "bit-complement":
		return BitComplement, nil
	case "bit_reverse", "bit-reverse":
		return BitReverse, nil
	case "bit_rotation", "bit-rotation":
		return BitRotation, nil
	case "shuffle":
		return Shuffle, nil
	case "transpose":
		return Transpose, nil
	case "tornado":
		return Tornado, nil
	case "neighbor":
		return Neighbor, nil
	case "hotspot", "hot_spot":
		return HotSpot, nil
	}
	return 0, fmt.Errorf("traffic: unknown pattern %q", s)
}

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case UniformRandom:
		return "uniform_random"
	case BitComplement:
		return "bit_complement"
	case BitReverse:
		return "bit_reverse"
	case BitRotation:
		return "bit_rotation"
	case Shuffle:
		return "shuffle"
	case Transpose:
		return "transpose"
	case Tornado:
		return "tornado"
	case Neighbor:
		return "neighbor"
	case HotSpot:
		return "hotspot"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// SizePoint is one entry of the packet-size mix.
type SizePoint struct {
	Flits  int
	Weight float64
}

// DefaultMix is Table 4's mixed traffic: 1-flit (requests/acks) and
// 5-flit (responses) packets in equal proportion.
func DefaultMix() []SizePoint {
	return []SizePoint{{Flits: 1, Weight: 0.5}, {Flits: 5, Weight: 0.5}}
}

// Synthetic is an open-loop Bernoulli traffic source implementing
// noc.TrafficSource.
type Synthetic struct {
	Pattern Pattern
	Rate    float64 // packets per node per cycle
	Class   int     // message class for generated packets (AE: inj-vnet=0)
	Mix     []SizePoint
	HotNode int     // HotSpot target
	HotFrac float64 // HotSpot fraction (default 0.2)

	rows, cols int
	nodes      int
	rngs       []*rng.Rand
	scratch    [][]noc.PacketSpec // per-node, so Generate is concurrency-safe across nodes
	paused     bool
}

// NewSynthetic builds a generator for a rows x cols mesh. Each node has
// an independent PRNG stream split from seed so that per-node processes
// are uncorrelated yet reproducible.
func NewSynthetic(rows, cols int, p Pattern, rate float64, seed uint64) *Synthetic {
	nodes := rows * cols
	base := rng.New(seed ^ 0xA5EEC)
	s := &Synthetic{
		Pattern: p,
		Rate:    rate,
		Mix:     DefaultMix(),
		HotFrac: 0.2,
		rows:    rows, cols: cols, nodes: nodes,
		rngs:    make([]*rng.Rand, nodes),
		scratch: make([][]noc.PacketSpec, nodes),
	}
	for i := range s.rngs {
		s.rngs[i] = base.Split()
	}
	return s
}

// Reseed rewinds every per-node PRNG stream to the state a fresh
// NewSynthetic with the given seed would start from, by re-running the
// constructor's split sequence. Used at warmup-fork points to give each
// fork an independent injection process over shared warmed-up state.
func (s *Synthetic) Reseed(seed uint64) {
	base := rng.New(seed ^ 0xA5EEC)
	for i := range s.rngs {
		s.rngs[i] = base.Split()
	}
}

// Pause stops injection (used to drain the network at the end of a
// measurement).
func (s *Synthetic) Pause() { s.paused = true }

// Resume restarts injection.
func (s *Synthetic) Resume() { s.paused = false }

// Dest returns the destination node the pattern maps src to.
func (s *Synthetic) Dest(src int, r *rng.Rand) int {
	n := s.nodes
	nb := bits.Len(uint(n - 1)) // id width in bits (n is a power of two for bit patterns)
	switch s.Pattern {
	case UniformRandom:
		return r.Intn(n)
	case BitComplement:
		return (^src) & (n - 1)
	case BitReverse:
		v := 0
		for i := 0; i < nb; i++ {
			v |= ((src >> i) & 1) << (nb - 1 - i)
		}
		return v % n
	case BitRotation:
		return ((src >> 1) | ((src & 1) << (nb - 1))) % n
	case Shuffle:
		return ((src << 1) | (src >> (nb - 1))) & (n - 1)
	case Transpose:
		x, y := src%s.cols, src/s.cols
		// Swap coordinates; on non-square meshes wrap into range.
		return (x%s.rows)*s.cols + (y % s.cols)
	case Tornado:
		x, y := src%s.cols, src/s.cols
		x = (x + (s.cols+1)/2 - 1) % s.cols
		return y*s.cols + x
	case Neighbor:
		x, y := src%s.cols, src/s.cols
		x = (x + 1) % s.cols
		return y*s.cols + x
	case HotSpot:
		if r.Bool(s.HotFrac) {
			return s.HotNode
		}
		return r.Intn(n)
	}
	panic("traffic: unknown pattern")
}

// pickSize draws a packet length from the mix.
func (s *Synthetic) pickSize(r *rng.Rand) int {
	total := 0.0
	for _, m := range s.Mix {
		total += m.Weight
	}
	v := r.Float64() * total
	for _, m := range s.Mix {
		v -= m.Weight
		if v < 0 {
			return m.Flits
		}
	}
	return s.Mix[len(s.Mix)-1].Flits
}

// Generate implements noc.TrafficSource.
func (s *Synthetic) Generate(cycle int64, node int) []noc.PacketSpec {
	if s.paused || s.Rate <= 0 {
		return nil
	}
	r := s.rngs[node]
	if !r.Bool(s.Rate) {
		return nil
	}
	out := append(s.scratch[node][:0], noc.PacketSpec{
		Dst:   s.Dest(node, r),
		Class: s.Class,
		Size:  s.pickSize(r),
	})
	s.scratch[node] = out
	return out
}

// Deliver implements noc.TrafficSource: synthetic sinks always consume.
func (s *Synthetic) Deliver(cycle int64, pkt *noc.Packet) bool { return true }

// ConcurrentGenerate reports true.
//
// Deprecated: it has no effect; noc.Network.Step is serial. Its only
// user is the perfbench module, whose wrapper test checks it is
// forwarded.
func (s *Synthetic) ConcurrentGenerate() bool { return true }

// ConcurrentDeliver reports true.
//
// Deprecated: it has no effect; noc.Network.Step is serial. Its only
// user is the perfbench module, whose wrapper test checks it is
// forwarded.
func (s *Synthetic) ConcurrentDeliver() bool { return true }

// Idle implements noc.IdleReporter: while paused or at zero rate,
// Generate returns nothing and draws no RNG, so idle cycles may be
// fast-forwarded exactly.
func (s *Synthetic) Idle() bool { return s.paused || s.Rate <= 0 }
