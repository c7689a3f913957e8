package seec_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"seec"
	"seec/internal/plan"
	"seec/internal/runner"
)

// Sweeps run their points concurrently but promise results identical
// to serial execution: every job's RNG seed derives from its own
// coordinates via Config.SweepSeed, never from shared or ambient state.

func curveCfg() seec.Config {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = seec.SchemeSEEC
	cfg.SimCycles = 2000
	return cfg
}

// runCurve runs one latency curve — curveCfg at each rate, seeds
// derived per point — through a planner on workers workers, every
// point simulating, and returns the outcomes in rate order.
func runCurve(t *testing.T, ctx context.Context, workers int, rates []float64) ([]plan.Outcome, plan.Stats) {
	t.Helper()
	p, err := plan.New(plan.Options{Workers: workers, NoReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]plan.Job, len(rates))
	for i, rate := range rates {
		cfg := curveCfg()
		cfg.InjectionRate = rate
		jobs[i] = plan.Job{Cfg: cfg, DeriveSeed: true}
	}
	return p.Run(ctx, jobs, seec.RunSyntheticCtx), p.Stats()
}

// TestLatencyCurveParallelDeterminism: a curve run through the planner
// must give the same outcome — every statistic of every point — on 1
// and 4 workers.
func TestLatencyCurveParallelDeterminism(t *testing.T) {
	rates := []float64{0.02, 0.08, 0.14, 0.20, 0.26}
	serial, _ := runCurve(t, context.Background(), 1, rates)
	for i, o := range serial {
		if !o.Done || o.Err != nil {
			t.Fatalf("point %d: done=%v err=%v", i, o.Done, o.Err)
		}
	}
	if par, _ := runCurve(t, context.Background(), 4, rates); !reflect.DeepEqual(serial, par) {
		t.Fatal("curve differs between workers=1 and workers=4")
	}
}

// TestSaturationThroughputParallelDeterminism: the search's fan-out
// shape is fixed, so the measured knee must not depend on workers.
func TestSaturationThroughputParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation search is slow")
	}
	cfg := curveCfg()
	cfg.SimCycles = 4000
	satSerial, resSerial, err := seec.SaturationThroughputWith(context.Background(), cfg, 1, seec.RunSyntheticCtx)
	if err != nil {
		t.Fatal(err)
	}
	satPar, resPar, err := seec.SaturationThroughputWith(context.Background(), cfg, 4, seec.RunSyntheticCtx)
	if err != nil {
		t.Fatal(err)
	}
	if satSerial != satPar || !reflect.DeepEqual(resSerial, resPar) {
		t.Fatalf("saturation differs: serial %.4f vs parallel %.4f", satSerial, satPar)
	}
}

// TestShardedStepRace steps four simulations of one configuration at
// the same time on the runner pool, the way a sweep runs its points,
// for long enough that the race detector sees any state they share,
// and requires the four Results to be identical. A simulation steps on
// one goroutine (DESIGN.md §8.1), so concurrent runs are the only
// concurrency a step meets. The cases keep the names of the VA paths
// they cover: XY's fused DefaultVA path with its failure memo
// (parallel_va), SEEC's escape policy (serial_va), and XY under link
// faults and drops (faulted). ci.sh's race pass runs it.
func TestShardedStepRace(t *testing.T) {
	cases := []struct {
		name   string
		scheme seec.Scheme
		faults string
	}{
		{"parallel_va", seec.SchemeXY, ""},
		{"serial_va", seec.SchemeSEEC, ""},
		{"faulted", seec.SchemeXY, "link:0.002,drop:0.001"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := seec.DefaultConfig()
			cfg.Scheme = tc.scheme
			cfg.InjectionRate = 0.20
			cfg.SimCycles = 1500
			cfg.Warmup = 200
			cfg.Faults = tc.faults
			const runs = 4
			res, err := runner.Map(context.Background(), runs, func(ctx context.Context, _ int) (seec.Result, error) {
				return seec.RunSyntheticCtx(ctx, cfg)
			}, runner.WithWorkers(runs))
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < runs; i++ {
				if !reflect.DeepEqual(res[0], res[i]) {
					t.Errorf("concurrent run %d differs from run 0\nrun 0: %+v\nrun %d: %+v", i, res[0], i, res[i])
				}
			}
		})
	}
}

// TestLatencyCurveCancellation: a curve planned under a pre-cancelled
// context must not run: no point executes or simulates.
func TestLatencyCurveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs, st := runCurve(t, ctx, 4, []float64{0.02, 0.10, 0.20})
	for i, o := range outs {
		if o.Done {
			t.Errorf("point %d executed under a cancelled context: %+v", i, o)
		}
	}
	if st.Simulated != 0 {
		t.Errorf("simulated=%d, want 0", st.Simulated)
	}
}

// requireDeadlineMidRun runs a sweep over 50M-cycle 4x4 XY points
// under a 200 ms deadline: it must give up within 2 s with an error
// wrapping context.DeadlineExceeded, so a cancelled sweep stops its
// points between cycles instead of finishing them.
func requireDeadlineMidRun(t *testing.T, sweep func(ctx context.Context, cfg seec.Config) error) {
	t.Helper()
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = seec.SchemeXY
	cfg.SimCycles = 50_000_000
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- sweep(ctx, cfg) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sweep still running 2 s after a 200 ms deadline")
	}
}

// TestLatencyCurveDeadlineMidRun: a curve point stops when its
// context's deadline fires mid-run.
func TestLatencyCurveDeadlineMidRun(t *testing.T) {
	requireDeadlineMidRun(t, func(ctx context.Context, cfg seec.Config) error {
		_, err := seec.RunSyntheticCtx(ctx, cfg)
		return err
	})
}

// TestSaturationThroughputDeadlineMidRun: the zero-load calibration
// and every probe run under the search's context.
func TestSaturationThroughputDeadlineMidRun(t *testing.T) {
	requireDeadlineMidRun(t, func(ctx context.Context, cfg seec.Config) error {
		_, _, err := seec.SaturationThroughputWith(ctx, cfg, 2, seec.RunSyntheticCtx)
		return err
	})
}

// TestSweepSeedCoordinates: derived seeds are stable, and every sweep
// coordinate — base seed, scheme, pattern, rate, mesh, tag —
// contributes to the stream identity.
func TestSweepSeedCoordinates(t *testing.T) {
	base := curveCfg()
	if base.SweepSeed() != base.SweepSeed() {
		t.Fatal("SweepSeed not stable")
	}
	seen := map[uint64]string{base.SweepSeed(): "base"}
	variant := func(name string, mutate func(*seec.Config)) {
		c := base
		mutate(&c)
		s := c.SweepSeed()
		if prev, dup := seen[s]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[s] = name
	}
	variant("seed", func(c *seec.Config) { c.Seed = 2 })
	variant("scheme", func(c *seec.Config) { c.Scheme = seec.SchemeMSEEC })
	variant("pattern", func(c *seec.Config) { c.Pattern = "transpose" })
	variant("rate", func(c *seec.Config) { c.InjectionRate = 0.06 })
	variant("mesh", func(c *seec.Config) { c.Rows = 8 })
	variant("vcs", func(c *seec.Config) { c.VCsPerVNet = 2 })
	if tagged := base.SweepSeed("canneal"); tagged == base.SweepSeed() {
		t.Error("tag does not change the derived seed")
	}
}
