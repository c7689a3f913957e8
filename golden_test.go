package seec_test

import (
	"context"
	"testing"

	"seec"
)

// Golden regression pins: exact packet counts for fixed seeds. The
// simulator is deterministic by construction, so any change to these
// values means router timing, arbitration, RNG draws or scheme behavior
// changed — which must be a conscious decision, not an accident.
// Update the constants deliberately when the change is intended.
func TestGoldenDeterministicResults(t *testing.T) {
	cases := []struct {
		scheme   seec.Scheme
		pattern  string
		rate     float64
		wantRecv int64
	}{
		{seec.SchemeXY, "uniform_random", 0.10, 3155},
		{seec.SchemeSEEC, "transpose", 0.10, 3175},
		{seec.SchemeMSEEC, "bit_rotation", 0.10, 3182},
		{seec.SchemeDRAIN, "shuffle", 0.10, 3182},
		{seec.SchemeMinBD, "uniform_random", 0.10, 3155},
	}
	for i, tc := range cases {
		cfg := seec.DefaultConfig()
		cfg.Rows, cfg.Cols = 4, 4
		cfg.Scheme = tc.scheme
		cfg.Pattern = tc.pattern
		cfg.InjectionRate = tc.rate
		cfg.SimCycles = 2000
		cfg.Seed = 12345
		res, err := seec.RunSyntheticCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if tc.wantRecv == -1 {
			t.Logf("case %d (%s/%s): recv=%d", i, tc.scheme, tc.pattern, res.ReceivedPackets)
			continue
		}
		if res.ReceivedPackets != tc.wantRecv {
			t.Errorf("case %d (%s/%s): received %d, golden value %d — simulator behavior changed",
				i, tc.scheme, tc.pattern, res.ReceivedPackets, tc.wantRecv)
		}
	}
}
