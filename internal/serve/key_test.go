package serve

import (
	"testing"

	"seec"
)

// TestCacheKeyGolden pins the canonical content hash for a fixed
// corpus of (config, seed, fault spec) combinations. These values are
// the cache's on-disk addressing scheme: existing result stores are
// keyed by them, so they must NOT drift. If a change REALLY has to
// alter them — a new semantic Config field, a changed canonical fault
// spelling, a payload format change — bump ResultFormatVersion (old
// caches then miss cleanly instead of aliasing) and re-pin. The sweep
// case's values are re-pinned from the driver side by the planner's
// TestPlannerKeyParity (internal/plan): the planner addresses sweep
// points by these same keys so drivers and seecd share one store, and
// a drift on either side breaks one of the two tests by name.
func TestCacheKeyGolden(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want []string // one key per lowered run, in order
	}{
		{
			name: "defaults",
			spec: `{}`,
			want: []string{"b3a7c9962f084d8e5b9decd9b6b195b7c1ed16b07ff5925e1851769edcabfa03"},
		},
		{
			name: "single rate with seed",
			spec: `{"rate":0.05,"seed":7}`,
			want: []string{"49154305acf8210e159a20acd81a44443ea3df960c43e154e76a732b305356fd"},
		},
		{
			name: "chipper small mesh",
			spec: `{"scheme":"chipper","rows":4,"cols":4,"warmup":500,"sim_cycles":5000,"rate":0.1}`,
			want: []string{"002c449e691faaf0fdf08f236e5bdc7b5ca4a7bbf42b28259c49229f4e9b5ab8"},
		},
		{
			name: "fault spec",
			spec: `{"faults":"link:0.001,router:2@5000","sim_cycles":10000,"seed":3}`,
			want: []string{"9191dcf564eb3a2edf9829cd91e9c937c0e30c864c617b6bab9aa747538f3c19"},
		},
		{
			name: "sweep derives per-point seeds",
			spec: `{"rates":[0.02,0.08],"seed":3}`,
			want: []string{
				"6feb708f3271e0ddbe806698bf6b78b161408aeec33608a56e0d90b1cfe7bf83",
				"3763b07d7724cb6f3a0475e02042b96dff7fec5b4db55e84bbcf30d725c13497",
			},
		},
		{
			name: "baseline scheme with CI stopping",
			spec: `{"scheme":"none","routing":"adaptive","pattern":"transpose","vcs_per_vnet":2,"vc_depth":8,"stop_ci":0.05}`,
			want: []string{"4c3028f2e0c0319a9a62ec83c18fdf28415853e1d6b922460911772bfef7e262"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := DecodeJobSpec([]byte(tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			cfgs := sp.Configs()
			if len(cfgs) != len(tc.want) {
				t.Fatalf("lowered to %d runs, want %d", len(cfgs), len(tc.want))
			}
			for i, c := range cfgs {
				if got := CacheKey(c); got != tc.want[i] {
					t.Errorf("run %d key drifted:\n got  %s\n want %s\n"+
						"cache addressing changed — existing stores would miss or alias; "+
						"bump ResultFormatVersion and re-pin if intentional", i, got, tc.want[i])
				}
			}
		})
	}
}

// TestCacheKeyInsensitiveToOperationalKnobs: operational and
// observability knobs must not split the cache — they cannot change
// result bytes.
func TestCacheKeyInsensitiveToOperationalKnobs(t *testing.T) {
	base := seec.DefaultConfig()
	key := CacheKey(base)
	mod := base
	mod.CheckpointPath = "/tmp/x.ckpt"
	mod.CheckpointEvery = 100
	mod.ResumePath = "/tmp/x.ckpt"
	mod.HeartbeatEvery = 7
	if CacheKey(mod) != key {
		t.Fatal("operational knobs changed the cache key")
	}
	// And every semantic knob MUST split it.
	for name, mut := range map[string]func(*seec.Config){
		"seed":    func(c *seec.Config) { c.Seed++ },
		"rate":    func(c *seec.Config) { c.InjectionRate += 0.01 },
		"scheme":  func(c *seec.Config) { c.Scheme = seec.SchemeNone },
		"rows":    func(c *seec.Config) { c.Rows = 4 },
		"cycles":  func(c *seec.Config) { c.SimCycles += 1 },
		"faults":  func(c *seec.Config) { c.Faults = "link:0.001" },
		"stop_ci": func(c *seec.Config) { c.StopCI = 0.05 },
	} {
		c := base
		mut(&c)
		if CacheKey(c) == key {
			t.Errorf("semantic knob %s did not change the cache key", name)
		}
	}
}
