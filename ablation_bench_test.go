package seec_test

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// reports the headline metric via b.ReportMetric so `go test -bench
// Ablation` prints a compact ablation study:
//
//   - ejection VCs per class (the reservation-tax tradeoff),
//   - the §3.3 QoS search rotation,
//   - the §3.7 NIC-queue search period,
//   - DRAIN's drain duration,
//   - SWAP's swap period,
//   - mSEEC's concurrent seekers vs single SEEC at equal hardware.

import (
	"context"
	"testing"

	"seec"
	"seec/internal/express"
	"seec/internal/noc"
	"seec/internal/schemes/drain"
	"seec/internal/schemes/swap"
	"seec/internal/traffic"
)

// ablRun runs one configuration and returns delivered throughput
// (flits/node/cycle) at a post-saturation load where the mechanisms
// under study dominate.
func ablRun(b *testing.B, mk func() noc.Scheme, vcs int) float64 {
	b.Helper()
	cfg := noc.DefaultConfig()
	cfg.Rows, cfg.Cols = 8, 8
	cfg.Routing = noc.RoutingAdaptiveMin
	cfg.VCsPerVNet = vcs
	src := traffic.NewSynthetic(8, 8, traffic.UniformRandom, 0.30, 97)
	opts := []noc.Option{noc.WithTraffic(src)}
	if mk != nil {
		opts = append(opts, noc.WithScheme(mk()))
	}
	n, err := noc.New(cfg, opts...)
	if err != nil {
		b.Fatal(err)
	}
	n.Run(6000)
	return n.Collector.Throughput(n.Cycle, 64)
}

// BenchmarkAblationEjectVCs varies ejection VCs per class under SEEC.
func BenchmarkAblationEjectVCs(b *testing.B) {
	for _, ej := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "ej1", 2: "ej2", 4: "ej4", 8: "ej8"}[ej], func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				cfg := seec.DefaultConfig()
				cfg.Scheme = seec.SchemeSEEC
				cfg.EjectVCsPerClass = ej
				cfg.InjectionRate = 0.12
				cfg.SimCycles = 5000
				res, err := seec.RunSyntheticCtx(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				thr = res.AvgLatency
			}
			b.ReportMetric(thr, "avg-latency")
		})
	}
}

// BenchmarkAblationQoSRotation compares the §3.3 round-robin search
// rotation against always starting at the destination's own router.
func BenchmarkAblationQoSRotation(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		name := "rotation-on"
		if disabled {
			name = "rotation-off"
		}
		b.Run(name, func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				thr = ablRun(b, func() noc.Scheme {
					return express.NewSEEC(express.Options{DisableQoSRotation: disabled})
				}, 1)
			}
			b.ReportMetric(thr, "thr-flits")
		})
	}
}

// BenchmarkAblationNICSearchPeriod sweeps N from §3.7.
func BenchmarkAblationNICSearchPeriod(b *testing.B) {
	for _, period := range []int64{0, 1000, 100000} {
		name := map[int64]string{0: "always", 1000: "1k", 100000: "100k"}[period]
		b.Run(name, func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				thr = ablRun(b, func() noc.Scheme {
					return express.NewSEEC(express.Options{NICSearchPeriod: period})
				}, 1)
			}
			b.ReportMetric(thr, "thr-flits")
		})
	}
}

// BenchmarkAblationDrainDuration sweeps DRAIN's per-event duration.
func BenchmarkAblationDrainDuration(b *testing.B) {
	for _, dur := range []int64{8, 48, 128} {
		name := map[int64]string{8: "d8", 48: "d48", 128: "d128"}[dur]
		b.Run(name, func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				thr = ablRun(b, func() noc.Scheme {
					return drain.New(drain.Options{Duration: dur})
				}, 1)
			}
			b.ReportMetric(thr, "thr-flits")
		})
	}
}

// BenchmarkAblationSwapPeriod sweeps SWAP's round period (footnote 5:
// halving the period raised peak link activity ~50% in the paper).
func BenchmarkAblationSwapPeriod(b *testing.B) {
	for _, period := range []int64{256, 1024, 4096} {
		name := map[int64]string{256: "p256", 1024: "p1024", 4096: "p4096"}[period]
		b.Run(name, func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				thr = ablRun(b, func() noc.Scheme {
					return swap.New(swap.Options{Period: period})
				}, 1)
			}
			b.ReportMetric(thr, "thr-flits")
		})
	}
}

// BenchmarkAblationSEECvsMSEEC reports the drain-throughput advantage
// of k concurrent seekers at identical router hardware (1 VC).
func BenchmarkAblationSEECvsMSEEC(b *testing.B) {
	for _, multi := range []bool{false, true} {
		name := "seec"
		if multi {
			name = "mseec"
		}
		b.Run(name, func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				thr = ablRun(b, func() noc.Scheme {
					if multi {
						return express.NewMSEEC(express.Options{})
					}
					return express.NewSEEC(express.Options{})
				}, 1)
			}
			b.ReportMetric(thr, "thr-flits")
		})
	}
}

// BenchmarkAblationOldestFirst compares the §4.3 QoS extension
// (oldest-packet seeker selection) against the paper's first-match
// policy, reporting the p99 tail at saturation.
func BenchmarkAblationOldestFirst(b *testing.B) {
	for _, oldest := range []bool{false, true} {
		name := "first-match"
		if oldest {
			name = "oldest-first"
		}
		b.Run(name, func(b *testing.B) {
			var p99 float64
			for i := 0; i < b.N; i++ {
				cfg := seec.DefaultConfig()
				cfg.Rows, cfg.Cols = 8, 8
				cfg.Scheme = seec.SchemeSEEC
				cfg.OldestFirst = oldest
				cfg.InjectionRate = 0.12
				cfg.SimCycles = 5000
				res, err := seec.RunSyntheticCtx(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				p99 = float64(res.P99Latency)
			}
			b.ReportMetric(p99, "p99-latency")
		})
	}
}
