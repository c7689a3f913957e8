package seec_test

// Benchmarks for the checkpoint subsystem: the warmup-fork sweep
// against the equivalent independent runs, plus raw save/restore cost.
// The ckpt-bytes metric records the serialized checkpoint size so the
// benchmark trajectory tracks format growth alongside speed.

import (
	"bytes"
	"context"
	"testing"

	"seec"
	"seec/internal/runner"
)

// warmupForkRates is the rate sweep both BenchmarkWarmupFork arms
// produce: the Fig. 8 quick-scale sweep.
var warmupForkRates = []float64{0.02, 0.06, 0.10, 0.14, 0.18, 0.22, 0.26, 0.30}

// warmupForkCfg is the shared workload: an 8x8 SEEC mesh with a warmup
// long enough that amortizing it across the sweep is worth measuring.
func warmupForkCfg() seec.Config {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 8, 8
	cfg.Scheme = seec.SchemeSEEC
	cfg.Pattern = "uniform_random"
	cfg.InjectionRate = 0.10
	cfg.Warmup = 2000
	cfg.SimCycles = 1000
	return cfg
}

// BenchmarkWarmupFork compares the two ways to produce a rate sweep:
// "shared" warms one simulation (seec.WarmCheckpoint) and forks every
// rate point from the in-memory checkpoint (seec.RunFork, the points
// across GOMAXPROCS workers); "independent" pays the full warmup once
// per rate point. Same measured cycles per point either way, so the
// ns/op gap is the amortized warmup.
func BenchmarkWarmupFork(b *testing.B) {
	b.Run("shared", func(b *testing.B) {
		cfg := warmupForkCfg()
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			snap, err := seec.WarmCheckpoint(ctx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			_, err = runner.Map(ctx, len(warmupForkRates), func(ctx context.Context, j int) (seec.Result, error) {
				return seec.RunFork(ctx, cfg, snap, seec.Fork{Rate: warmupForkRates[j]})
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("independent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, rate := range warmupForkRates {
				cfg := warmupForkCfg()
				cfg.InjectionRate = rate
				if _, err := seec.RunSyntheticCtx(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// warmSim builds the benchmark simulation and runs it to the end of
// warmup, the state both checkpoint benchmarks operate on.
func warmSim(b *testing.B) *seec.Sim {
	b.Helper()
	cfg := warmupForkCfg()
	s, err := seec.NewSim(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Run(cfg.Warmup)
	return s
}

// BenchmarkCheckpointSave measures serializing the full simulator state
// to an in-memory buffer, and reports the checkpoint size.
func BenchmarkCheckpointSave(b *testing.B) {
	s := warmSim(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := s.SaveCheckpoint(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "ckpt-bytes")
}

// BenchmarkCheckpointRestore measures validating a checkpoint and
// rebuilding a Sim from it, and reports the checkpoint size.
func BenchmarkCheckpointRestore(b *testing.B) {
	s := warmSim(b)
	var buf bytes.Buffer
	if err := s.SaveCheckpoint(&buf); err != nil {
		b.Fatal(err)
	}
	snap := buf.Bytes()
	cfg := warmupForkCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seec.NewSimFromCheckpoint(cfg, bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(snap)), "ckpt-bytes")
}
