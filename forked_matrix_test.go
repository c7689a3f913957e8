package seec_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"seec"
	"seec/internal/checkpoint"
	"seec/internal/plan"
)

// matrixCfg is one small point of the fork identity matrix.
func matrixCfg(scheme seec.Scheme, pattern, faults string) seec.Config {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = scheme
	cfg.Pattern = pattern
	cfg.InjectionRate = 0.10
	cfg.Warmup = 200
	cfg.SimCycles = 600
	cfg.Faults = faults
	return cfg
}

// TestWarmupForkIdentityMatrix extends TestWarmupFork's zero-override
// identity across the whole Fig. 8 lineup: for every scheme x pattern
// x (fault-free, faulted) combination that can checkpoint, a fork with
// no overrides must be byte-identical to the plain run — the property
// the sweep planner's warmup-prefix sharing leans on when it forks a
// family member at the family's own warmup rate. Deflection schemes
// (CHIPPER, MinBD) have no checkpointable state; the contract there is
// the explicitly recorded fallback, checkpoint.ErrUnsupported, which
// the planner translates into independent per-point runs.
func TestWarmupForkIdentityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix of full runs; skipped in -short")
	}
	schemes := []seec.Scheme{seec.SchemeXY, seec.SchemeWestFirst,
		seec.SchemeTFC, seec.SchemeEscape, seec.SchemeMinBD,
		seec.SchemeCHIPPER, seec.SchemeSPIN, seec.SchemeSWAP,
		seec.SchemeDRAIN, seec.SchemeSEEC, seec.SchemeMSEEC}
	deflection := map[seec.Scheme]bool{seec.SchemeMinBD: true, seec.SchemeCHIPPER: true}
	for _, scheme := range schemes {
		for _, pattern := range []string{"uniform_random", "transpose"} {
			if deflection[scheme] {
				// No NIC retry buffer on the deflection network, so the
				// fault layer does not apply; one fault-free leg pins the
				// recorded-fallback contract.
				cfg := matrixCfg(scheme, pattern, "")
				_, err := seec.WarmCheckpoint(context.Background(), cfg)
				if !errors.Is(err, checkpoint.ErrUnsupported) {
					t.Errorf("%s/%s: deflection fork err = %v, want checkpoint.ErrUnsupported",
						scheme, pattern, err)
				}
				continue
			}
			for _, faults := range []string{"", "link:0.001"} {
				scheme, pattern, faults := scheme, pattern, faults
				name := string(scheme) + "/" + pattern
				if faults != "" {
					name += "/faulted"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cfg := matrixCfg(scheme, pattern, faults)
					ref, err := seec.RunSyntheticCtx(context.Background(), cfg)
					if err != nil {
						t.Fatalf("plain run: %v", err)
					}
					snap, err := seec.WarmCheckpoint(context.Background(), cfg)
					if err != nil {
						t.Fatalf("warmup: %v", err)
					}
					res, err := seec.RunFork(context.Background(), cfg, snap, seec.Fork{})
					if err != nil {
						t.Fatalf("forked run: %v", err)
					}
					if !reflect.DeepEqual(ref, res) {
						t.Errorf("zero-override fork differs from the plain run\nplain: %+v\nfork:  %+v",
							ref, res)
					}
				})
			}
		}
	}
}

// TestWarmupForkShardedIdentity pins the planner's warm-up fork path
// against the shard count that plan.Options keeps for the perfbench
// module: planners with Shards 0, 1 and 4 fork the same families from
// the same warm states, and every member's outcome is the bytes
// seec.RunFork gives from seec.WarmCheckpoint of its family's base (the
// mid-rate member, seeded by SweepSeed("warmup-share")). Older builds copied the
// shard count into every family base, so a fork path that still read
// it would skew shared sweeps.
func TestWarmupForkShardedIdentity(t *testing.T) {
	ctx := context.Background()
	rates := []float64{0.05, 0.10, 0.20}
	var jobs []plan.Job
	var want []seec.Result
	for _, scheme := range []seec.Scheme{seec.SchemeSEEC, seec.SchemeMSEEC} {
		base := matrixCfg(scheme, "uniform_random", "")
		base.InjectionRate = rates[len(rates)/2]
		base.Seed = base.SweepSeed("warmup-share")
		snap, err := seec.WarmCheckpoint(ctx, base)
		if err != nil {
			t.Fatalf("%s library warmup: %v", scheme, err)
		}
		for _, rate := range rates {
			cfg := matrixCfg(scheme, "uniform_random", "")
			cfg.InjectionRate = rate
			jobs = append(jobs, plan.Job{Cfg: cfg, DeriveSeed: true})
			res, err := seec.RunFork(ctx, base, snap, seec.Fork{Rate: rate})
			if err != nil {
				t.Fatalf("%s library fork: %v", scheme, err)
			}
			want = append(want, res)
		}
	}
	for _, shards := range []int{0, 1, 4} {
		p, err := plan.New(plan.Options{Workers: 2, Shards: shards, WarmupShare: true})
		if err != nil {
			t.Fatal(err)
		}
		outs := p.Run(ctx, jobs, seec.RunSyntheticCtx)
		for i, o := range outs {
			if !o.Done || o.Err != nil {
				t.Fatalf("shards=%d job %d: done=%v err=%v", shards, i, o.Done, o.Err)
			}
			if !reflect.DeepEqual(o.Result, want[i]) {
				t.Errorf("shards=%d job %d: planner fork differs from the library fork\nlibrary: %+v\nplanner: %+v",
					shards, i, want[i], o.Result)
			}
		}
		if st := p.Stats(); st.WarmupFamilies != 2 || st.WarmupForks != int64(len(jobs)) {
			t.Errorf("shards=%d: families=%d forks=%d, want 2/%d",
				shards, st.WarmupFamilies, st.WarmupForks, len(jobs))
		}
	}
}
