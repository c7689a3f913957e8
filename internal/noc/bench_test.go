package noc_test

import (
	"fmt"
	"testing"

	"seec"
	"seec/internal/express"
	"seec/internal/fault"
	"seec/internal/noc"
	"seec/internal/rng"
	"seec/internal/trace"
)

// benchSource is an open-loop uniform-random Bernoulli generator used
// to load the mesh at a fixed rate. It throttles on the NIC injection
// queues so the saturated benchmark measures steady-state router work
// rather than unbounded queue growth, and it retains no delivered
// packets, so packet recycling is safe.
type benchSource struct {
	net     *noc.Network
	rate    float64
	streams []*rng.Rand
	scratch [][]noc.PacketSpec // per node, like traffic.Synthetic
}

func newBenchSource(rate float64, seed uint64, nodes int) *benchSource {
	root := rng.New(seed)
	s := &benchSource{rate: rate,
		streams: make([]*rng.Rand, nodes),
		scratch: make([][]noc.PacketSpec, nodes)}
	for i := range s.streams {
		s.streams[i] = root.Split()
	}
	return s
}

func (s *benchSource) Generate(cycle int64, node int) []noc.PacketSpec {
	out := s.scratch[node][:0]
	r := s.streams[node]
	if !r.Bool(s.rate) {
		return out
	}
	if !s.net.NICs[node].CanEnqueue(0) {
		return out
	}
	size := 1
	if r.Bool(0.5) {
		size = 5
	}
	dst := r.Intn(s.net.Nodes() - 1)
	if dst >= node {
		dst++
	}
	out = append(out, noc.PacketSpec{Dst: dst, Class: 0, Size: size})
	s.scratch[node] = out
	return out
}

func (s *benchSource) Deliver(int64, *noc.Packet) bool { return true }

// benchNetwork builds the steady-state 8x8 XY mesh the Step
// benchmarks and the zero-alloc gate share.
func benchNetwork(tb testing.TB, rate float64) *noc.Network {
	cfg := noc.DefaultConfig()
	cfg.Routing = noc.RoutingXY
	return loadedNetwork(tb, cfg, rate)
}

// seecNetwork builds the steady-state 8x8 SEEC mesh: the paper's
// minimal-adaptive routing over one unified VNet, which exercises the
// fused allocation path's tie-break draws and failure memo.
func seecNetwork(tb testing.TB, rate float64) *noc.Network {
	return loadedNetwork(tb, noc.DefaultConfig(), rate, noc.WithScheme(express.NewSEEC(express.Options{})))
}

// loadedNetwork builds cfg under the throttled benchmark source and
// runs it to steady-state occupancy.
func loadedNetwork(tb testing.TB, cfg noc.Config, rate float64, opts ...noc.Option) *noc.Network {
	cfg.InjQueueCap = 16
	src := newBenchSource(rate, 0xbe7c4, cfg.Nodes())
	n, err := noc.New(cfg, append(opts, noc.WithTraffic(src))...)
	if err != nil {
		tb.Fatal(err)
	}
	src.net = n
	n.SetPacketRecycling(true)
	n.Run(2000) // reach steady-state occupancy before timing
	return n
}

// BenchmarkStep measures one Network.Step of an 8x8 mesh at three
// operating points: near-idle (the active-set fast path), moderate
// load, and saturation (every router busy — the full-sweep regime the
// scheduler must not regress).
func BenchmarkStep(b *testing.B) {
	for _, rate := range []float64{0.02, 0.20, 0.60} {
		b.Run(fmt.Sprintf("rate=%.2f", rate), func(b *testing.B) {
			n := benchNetwork(b, rate)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
		})
	}
}

// BenchmarkRunIdleSkip measures an end-to-end low-load drain whose
// tail is dominated by retransmission-timeout waits: after the live
// packets leave, the network sits idle until the fault layer's next
// deadline. skip=true fast-forwards those gaps (the Run/Drain
// default); skip=false steps through them cycle by cycle.
func BenchmarkRunIdleSkip(b *testing.B) {
	for _, skip := range []bool{true, false} {
		b.Run(fmt.Sprintf("skip=%v", skip), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := noc.DefaultConfig()
				cfg.Routing = noc.RoutingXY
				cfg.InjQueueCap = 16
				src := newBenchSource(0.02, 0xbe7c4, cfg.Nodes())
				n, err := noc.New(cfg, noc.WithTraffic(src))
				if err != nil {
					b.Fatal(err)
				}
				src.net = n
				n.SetPacketRecycling(true)
				n.SetFaults(fault.NewInjector(fault.Spec{DropRate: 0.01, Timeout: 2500}, 7))
				n.SetFastForward(skip)
				n.Run(500)
				n.Traffic = nil // drain: no further injection
				b.StartTimer()
				if !n.Drain(400_000) {
					b.Fatal("drain did not complete")
				}
			}
		})
	}
}

// BenchmarkStepTraced is BenchmarkStep with a full instrumentation
// stack attached (ring-buffer tracer + windowed metrics), quantifying
// the enabled-path overhead against the plain benchmark above. It must
// itself stay 0 allocs/op: recording into the ring and bumping metric
// counters never allocates.
func BenchmarkStepTraced(b *testing.B) {
	for _, rate := range []float64{0.02, 0.60} {
		b.Run(fmt.Sprintf("rate=%.2f", rate), func(b *testing.B) {
			n := benchNetwork(b, rate)
			n.Tracer = trace.NewRecorder(trace.DefaultCapacity)
			n.Metrics = trace.NewMetrics(n.Cfg.Rows, n.Cfg.Cols, 1000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
		})
	}
}

// TestStepZeroAllocsUntraced is the disabled-tracer gate: with Tracer,
// Metrics and Watchdog all nil (the default), the Step hot path must
// not allocate at all, at idle or at saturation. This pins the
// "instrumentation is free when off" contract independently of the
// benchmark record in BENCH_step.json. The SEEC mesh holds the fused
// adaptive allocation path and its memos to the same bound, and the
// 16x16 cases hold whole simulations (the synthetic traffic source,
// link delivery with credit queues that must stay in their inline
// slots, the SEEC/mSEEC engines) to it.
func TestStepZeroAllocsUntraced(t *testing.T) {
	for _, rate := range []float64{0.02, 0.60} {
		for _, mesh := range []struct {
			name  string
			build func(testing.TB, float64) *noc.Network
		}{{"xy", benchNetwork}, {"seec", seecNetwork}} {
			name, n := mesh.name, mesh.build(t, rate)
			if n.Tracer != nil || n.Metrics != nil || n.Watchdog != nil {
				t.Fatal("default network must be uninstrumented")
			}
			if avg := testing.AllocsPerRun(500, func() { n.Step() }); avg != 0 {
				t.Errorf("%s rate=%.2f: Step allocates %.2f allocs/op with tracing disabled, want 0", name, rate, avg)
			}
		}
	}
	// The real traffic source (traffic.Synthetic) at the run-16x16
	// benchmark configuration: 16x16, uniform random at 0.05.
	for _, sc := range []seec.Scheme{seec.SchemeXY, seec.SchemeSEEC, seec.SchemeMSEEC} {
		cfg := seec.DefaultConfig()
		cfg.Rows, cfg.Cols = 16, 16
		cfg.Scheme = sc
		cfg.Pattern = "uniform_random"
		cfg.InjectionRate = 0.05
		sim, err := seec.NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(3000)
		if avg := testing.AllocsPerRun(2000, sim.Step); avg != 0 {
			t.Errorf("%s 16x16 synthetic: Step allocates %.2f allocs/op with tracing disabled, want 0", sc, avg)
		}
	}
}
