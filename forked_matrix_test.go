package seec_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"seec"
	"seec/internal/checkpoint"
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
// both the legacy Fig-8 shared path and the planner translate into
// independent per-point runs.
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
				_, err := seec.RunSyntheticForked(cfg, []seec.Fork{{}})
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
					ref, err := seec.RunSynthetic(cfg)
					if err != nil {
						t.Fatalf("plain run: %v", err)
					}
					res, err := seec.RunSyntheticForked(cfg, []seec.Fork{{}})
					if err != nil {
						t.Fatalf("forked run: %v", err)
					}
					if !reflect.DeepEqual(ref, res[0]) {
						t.Errorf("zero-override fork differs from the plain run\nplain: %+v\nfork:  %+v",
							ref, res[0])
					}
				})
			}
		}
	}
}

// TestWarmupForkShardedIdentity pins the sharded leg: forking from a
// warm state with intra-run sharding enabled produces the same bytes
// as the serial fork and as independent sharded runs of the base —
// the planner copies Scale.Shards into every family base, so a
// shard-dependent fork would silently skew shared sweeps.
func TestWarmupForkShardedIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("several full runs; skipped in -short")
	}
	for _, scheme := range []seec.Scheme{seec.SchemeSEEC, seec.SchemeMSEEC} {
		cfg := matrixCfg(scheme, "uniform_random", "")
		forks := []seec.Fork{{}, {Rate: 0.05}, {Rate: 0.20}}
		serial, err := seec.RunSyntheticForkedCtx(context.Background(), cfg, forks, 1)
		if err != nil {
			t.Fatalf("%s serial: %v", scheme, err)
		}
		cfg.Shards = 4
		sharded, err := seec.RunSyntheticForkedCtx(context.Background(), cfg, forks, 1)
		if err != nil {
			t.Fatalf("%s sharded: %v", scheme, err)
		}
		if len(serial) != len(sharded) {
			t.Fatalf("%s: %d serial vs %d sharded results", scheme, len(serial), len(sharded))
		}
		for i := range serial {
			// The echoed Config records the shard count, so compare the
			// measurements, not the echo.
			a, b := serial[i], sharded[i]
			a.Config.Shards, b.Config.Shards = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s fork %d: sharded fork differs from serial\nserial:  %+v\nsharded: %+v",
					scheme, i, a, b)
			}
		}
	}
}
