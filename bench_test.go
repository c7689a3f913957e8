package seec_test

// One testing.B benchmark per table/figure of the paper's evaluation
// (§4). Each iteration regenerates the experiment at a reduced scale
// (the cmd/figures tool runs the full versions); custom metrics report
// the headline quantity of each figure so `go test -bench . -benchmem`
// doubles as a compact reproduction record.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"seec"
	"seec/internal/exp"
	"seec/internal/plan"
)

// benchScale is a trimmed Scale keeping each bench iteration bounded.
func benchScale() exp.Scale {
	s := exp.Quick()
	s.SimCycles = 4000
	s.MeshSizes = []int{4}
	s.Rates = []float64{0.05, 0.15, 0.25}
	s.AppTxns = 1500
	s.Apps = []string{"canneal"}
	s.SatCycles = 4000
	return s
}

// BenchmarkFig7_Area regenerates the router area breakdown.
func BenchmarkFig7_Area(b *testing.B) {
	var norm float64
	for i := 0; i < b.N; i++ {
		t := exp.Fig7()
		v, _ := strconv.ParseFloat(t.Rows[len(t.Rows)-1][len(t.Rows[0])-1], 64)
		norm = v
	}
	b.ReportMetric(norm, "seec-norm-area")
}

// BenchmarkFig8_LatencyCurves regenerates the latency-vs-rate curves.
func BenchmarkFig8_LatencyCurves(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if tabs := exp.Fig8(s); len(tabs) == 0 {
			b.Fatal("no tables")
		}
	}
}

// BenchmarkFig8_LatencyCurvesShared reruns the Fig. 8 sweep through
// the planner with warmup-prefix sharing: each (mesh, pattern, scheme)
// curve pays its warmup once and forks its rate points from the warm
// checkpoint. A fresh planner per iteration keeps the memo caches out
// of the measurement, so the delta against BenchmarkFig8_LatencyCurves
// is warmup sharing itself (net of checkpoint-fork overhead, and with
// the deflection schemes falling back to independent runs).
func BenchmarkFig8_LatencyCurvesShared(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		p, err := plan.New(plan.Options{Workers: s.Workers, WarmupShare: true})
		if err != nil {
			b.Fatal(err)
		}
		s.Planner = p
		if tabs := exp.Fig8(s); len(tabs) == 0 {
			b.Fatal("no tables")
		}
	}
}

// planFigs renders the benchmark slice of the figure set — the Fig. 8
// synthetic sweep plus the Table 3 drain study, covering both the
// direct-run and the memoized-measurement planner paths — through one
// planner backed by dir.
func planFigs(b *testing.B, dir string, share bool) *plan.Planner {
	b.Helper()
	s := benchScale()
	p, err := plan.New(plan.Options{Workers: s.Workers, WarmupShare: share, CacheDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	s.Planner = p
	if tabs := exp.Fig8(s); len(tabs) == 0 {
		b.Fatal("no tables")
	}
	if t := exp.Table3(s); len(t.Rows) == 0 {
		b.Fatal("no rows")
	}
	return p
}

// BenchmarkFigAllPlanned tracks the planner's end-to-end effect on a
// figure batch: cold against an empty cache directory (every point
// simulates), cold with warmup-prefix sharing, and warm against a
// populated cache (zero simulations; the remaining cost is store
// decode plus rendering).
func BenchmarkFigAllPlanned(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			planFigs(b, b.TempDir(), false)
		}
	})
	b.Run("cold-shared-warmup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			planFigs(b, b.TempDir(), true)
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		planFigs(b, dir, false) // seed the store outside the timer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if p := planFigs(b, dir, false); p.Stats().Simulated != 0 {
				b.Fatalf("warm run simulated %d jobs, want 0", p.Stats().Simulated)
			}
		}
	})
}

// BenchmarkFig9_SatThroughput regenerates the saturation bars.
func BenchmarkFig9_SatThroughput(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if t := exp.Fig9(s); len(t.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig10a_FFFraction regenerates the FF-fraction curve and
// reports the post-saturation FF share for SEEC.
func BenchmarkFig10a_FFFraction(b *testing.B) {
	cfg := seec.DefaultConfig()
	cfg.Scheme = seec.SchemeSEEC
	cfg.InjectionRate = 0.25 // past saturation
	cfg.SimCycles = 5000
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := seec.RunSyntheticCtx(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		frac = res.FFFraction
	}
	b.ReportMetric(100*frac, "%FF-post-sat")
}

// BenchmarkFig10b_LatencyBreakdown regenerates the FF/regular latency
// split and reports the bufferless portion.
func BenchmarkFig10b_LatencyBreakdown(b *testing.B) {
	cfg := seec.DefaultConfig()
	cfg.Scheme = seec.SchemeSEEC
	cfg.InjectionRate = 0.20
	cfg.SimCycles = 5000
	var free float64
	for i := 0; i < b.N; i++ {
		res, err := seec.RunSyntheticCtx(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		free = res.FFFreeAvg
	}
	b.ReportMetric(free, "FF-bufferless-cycles")
}

// BenchmarkFig11_LinkEnergy regenerates the energy comparison and
// reports SEEC's sideband overhead relative to west-first.
func BenchmarkFig11_LinkEnergy(b *testing.B) {
	s := benchScale()
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		t = exp.Fig11(s)
	}
	if t != nil && len(t.Rows) > 0 {
		if v, err := strconv.ParseFloat(t.Rows[len(t.Rows)-1][1], 64); err == nil {
			b.ReportMetric(v, "seec-avg-energy-vs-wf")
		}
	}
}

// BenchmarkFig12_RoutingAlgos regenerates the routing deep dive.
func BenchmarkFig12_RoutingAlgos(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if tabs := exp.Fig12(s); len(tabs) != 2 {
			b.Fatal("expected two tables")
		}
	}
}

// BenchmarkFig13_VCScaling regenerates the VC-scaling study.
func BenchmarkFig13_VCScaling(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if tabs := exp.Fig13(s); len(tabs) != 2 {
			b.Fatal("expected two tables")
		}
	}
}

// BenchmarkFig14_Applications regenerates the application latency and
// runtime comparison.
func BenchmarkFig14_Applications(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if t := exp.Fig14(s); len(t.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig15_TailLatency regenerates the max-latency comparison.
func BenchmarkFig15_TailLatency(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if t := exp.Fig15(s); len(t.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable3_SeekBounds regenerates the SEEC-vs-mSEEC bound check.
func BenchmarkTable3_SeekBounds(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if t := exp.Table3(s); len(t.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// benchCurve is the shared workload for the serial-vs-parallel pair:
// one Fig. 8-style latency curve, its rate points run through a
// planner on workers workers with every point simulating.
func benchCurve(b *testing.B, workers int) {
	rates := []float64{0.02, 0.06, 0.10, 0.14, 0.18, 0.22, 0.26, 0.30}
	jobs := make([]plan.Job, len(rates))
	for i, rate := range rates {
		cfg := seec.DefaultConfig()
		cfg.Rows, cfg.Cols = 4, 4
		cfg.Scheme = seec.SchemeSEEC
		cfg.SimCycles = 3000
		cfg.InjectionRate = rate
		jobs[i] = plan.Job{Cfg: cfg, DeriveSeed: true}
	}
	for i := 0; i < b.N; i++ {
		p, err := plan.New(plan.Options{Workers: workers, NoReuse: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range p.Run(context.Background(), jobs, seec.RunSyntheticCtx) {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
	}
}

// BenchmarkLatencyCurveSerial pins the single-worker curve so the
// parallel speedup below is tracked in the benchmark trajectory.
func BenchmarkLatencyCurveSerial(b *testing.B) { benchCurve(b, 1) }

// BenchmarkLatencyCurveParallel runs the identical curve across
// GOMAXPROCS workers; the results are byte-identical to serial (see
// TestLatencyCurveParallelDeterminism), only the wall clock changes.
func BenchmarkLatencyCurveParallel(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	benchCurve(b, runtime.GOMAXPROCS(0))
}

// BenchmarkStepSEEC8x8 measures raw simulator speed (cycles/op) for
// profiling work on the simulator itself, not a paper figure.
func BenchmarkStepSEEC8x8(b *testing.B) {
	cfg := seec.DefaultConfig()
	cfg.Scheme = seec.SchemeSEEC
	cfg.InjectionRate = 0.10
	sim, err := seec.NewSim(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkStepSchemes measures one Sim.Step of an 8x8 mesh under every
// credit-flow scheme at BenchmarkStep's three loads: near idle,
// moderate, and far past saturation. Synthetic injection queues are
// unbounded, so a saturated run would grow them without limit; the
// benchmark instead rewinds to its warmed-up checkpoint every
// stepWindow steps (timer stopped), so every timed step sees the same
// regime and memory stays flat.
func BenchmarkStepSchemes(b *testing.B) {
	const stepWindow = 4096
	for _, sc := range creditFlowSchemes() {
		for _, rate := range []float64{0.02, 0.20, 0.60} {
			b.Run(fmt.Sprintf("%s/rate=%.2f", sc, rate), func(b *testing.B) {
				cfg := seec.DefaultConfig()
				cfg.Scheme = sc
				cfg.InjectionRate = rate
				sim, err := seec.NewSim(cfg)
				if err != nil {
					b.Fatal(err)
				}
				sim.Run(2000)
				var ck bytes.Buffer
				if err := sim.SaveCheckpoint(&ck); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i > 0 && i%stepWindow == 0 {
						b.StopTimer()
						if sim, err = seec.NewSimFromCheckpoint(cfg, bytes.NewReader(ck.Bytes())); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					sim.Step()
				}
			})
		}
	}
}

// BenchmarkStepDeflect measures one Sim.Step of an 8x8 mesh under the
// deflection schemes (CHIPPER, MinBD) at BenchmarkStep's three loads.
// Deflection networks cannot checkpoint, so where BenchmarkStepSchemes
// rewinds, this benchmark rebuilds and re-warms the same simulation
// every stepWindow steps (timer stopped) to keep saturated injection
// queues bounded.
func BenchmarkStepDeflect(b *testing.B) {
	const stepWindow = 4096
	for _, sc := range []seec.Scheme{seec.SchemeCHIPPER, seec.SchemeMinBD} {
		for _, rate := range []float64{0.02, 0.20, 0.60} {
			b.Run(fmt.Sprintf("%s/rate=%.2f", sc, rate), func(b *testing.B) {
				cfg := seec.DefaultConfig()
				cfg.Scheme = sc
				cfg.InjectionRate = rate
				warm := func() *seec.Sim {
					sim, err := seec.NewSim(cfg)
					if err != nil {
						b.Fatal(err)
					}
					sim.Run(2000)
					return sim
				}
				sim := warm()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i > 0 && i%stepWindow == 0 {
						b.StopTimer()
						sim = warm()
						b.StartTimer()
					}
					sim.Step()
				}
			})
		}
	}
}

// BenchmarkTable3Drain is one Table 3 drain job at the size sweep-cold
// runs it: a 4x4 SEEC mesh with one VC under minimal-adaptive routing,
// saturated (rate 0.5) for 4000 cycles until it wedges, then drained
// with injection paused. Nearly every VC allocation in the drain fails
// and replays its memo, so this is the fused path's failure regime.
func BenchmarkTable3Drain(b *testing.B) {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.VCsPerVNet = 1
	cfg.InjectionRate = 0.5
	var drained int64
	for i := 0; i < b.N; i++ {
		sim, err := seec.NewSim(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sim.Run(4000)
		sim.Synthetic.Pause()
		start := sim.Cycle()
		for !sim.Drained() && sim.Cycle()-start < 5_000_000 {
			sim.Step()
		}
		if !sim.Drained() {
			b.Fatal("drain did not complete")
		}
		drained = sim.Cycle() - start
	}
	b.ReportMetric(float64(drained), "drain-cycles")
}
