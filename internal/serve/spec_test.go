package serve

import (
	"strings"
	"testing"
)

func TestDecodeJobSpecDefaults(t *testing.T) {
	sp, err := DecodeJobSpec([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Scheme != "seec" || sp.Pattern != "uniform_random" || sp.Rows != 8 || sp.Cols != 8 {
		t.Fatalf("defaults not filled: %+v", sp)
	}
	cfgs := sp.Configs()
	if len(cfgs) != 1 {
		t.Fatalf("want 1 config, got %d", len(cfgs))
	}
	if cfgs[0].InjectionRate != 0.05 || cfgs[0].Seed != 1 {
		t.Fatalf("default config: rate %v seed %d", cfgs[0].InjectionRate, cfgs[0].Seed)
	}
}

func TestDecodeJobSpecSweep(t *testing.T) {
	sp, err := DecodeJobSpec([]byte(`{"rate_from":0.02,"rate_to":0.1,"rate_step":0.02,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	cfgs := sp.Configs()
	if len(cfgs) != 5 {
		t.Fatalf("want 5 sweep points, got %d", len(cfgs))
	}
	// Sweep points derive per-point seeds (the planner's SweepSeed
	// convention), so gateway cache entries line up with the figures CLI.
	for i, c := range cfgs {
		want := c
		want.Seed = 7
		if c.Seed != want.SweepSeed() {
			t.Fatalf("point %d seed %d, want SweepSeed %d", i, c.Seed, want.SweepSeed())
		}
	}
	// A single-rate job keeps its seed as-is (RunSyntheticCtx convention).
	sp2, _ := DecodeJobSpec([]byte(`{"rate":0.05,"seed":7}`))
	if got := sp2.Configs()[0].Seed; got != 7 {
		t.Fatalf("single-rate seed %d, want 7", got)
	}
}

func TestDecodeJobSpecFaultCanonicalization(t *testing.T) {
	a, err := DecodeJobSpec([]byte(`{"faults":"link:0.001"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeJobSpec([]byte(`{"faults":"` + a.Faults + `"}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Faults != b.Faults {
		t.Fatalf("canonicalization unstable: %q vs %q", a.Faults, b.Faults)
	}
	if CacheKey(a.Configs()[0]) != CacheKey(b.Configs()[0]) {
		t.Fatal("equivalent fault spellings got different cache keys")
	}
}

func TestDecodeJobSpecRejects(t *testing.T) {
	cases := []struct {
		name, body, field string
	}{
		{"unknown field", `{"shards": 4}`, "(body)"},
		{"trailing garbage", `{} {}`, "(body)"},
		{"not json", `hello`, "(body)"},
		{"bad scheme", `{"scheme":"warp"}`, "scheme"},
		{"bad routing", `{"routing":"spiral"}`, "routing"},
		{"bad pattern", `{"pattern":"nope"}`, "pattern"},
		{"mesh too big", `{"rows":64}`, "rows/cols"},
		{"mesh too small", `{"rows":1}`, "rows/cols"},
		{"rate zero", `{"rate":-0.5}`, "rate"},
		{"rate above 1", `{"rate":1.5}`, "rate"},
		{"rate null", `{"rates":[null]}`, "rates"},
		{"conflicting rates", `{"rate":0.1,"rates":[0.2]}`, "rate"},
		{"range backwards", `{"rate_from":0.2,"rate_to":0.1,"rate_step":0.01}`, "rate_to"},
		{"range step zero", `{"rate_from":0.1,"rate_to":0.2}`, "rate_step"},
		{"too many points", `{"rate_from":0.001,"rate_to":0.9,"rate_step":0.001}`, "rate_step"},
		{"cycles over budget", `{"sim_cycles":99000000}`, "sim_cycles"},
		{"warmup over budget", `{"warmup":99000000}`, "warmup"},
		// Two huge positives whose sum wraps int64 negative: the per-field
		// bounds must catch them before the sum is computed.
		{"cycles overflow", `{"warmup":4611686018427387904,"sim_cycles":4611686018427387904}`, "warmup"},
		{"negative warmup", `{"warmup":-1}`, "warmup"},
		{"bad faults", `{"faults":"gremlins:yes"}`, "faults"},
		{"faults on deflection", `{"scheme":"chipper","faults":"link:0.001"}`, "faults"},
		{"stop_ci too big", `{"stop_ci":0.9}`, "stop_ci"},
		{"vc depth huge", `{"vc_depth":1000}`, "vc_depth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeJobSpec([]byte(tc.body))
			if err == nil {
				t.Fatalf("accepted %s", tc.body)
			}
			se, ok := err.(*SpecError)
			if !ok {
				t.Fatalf("want *SpecError, got %T: %v", err, err)
			}
			if se.Field != tc.field {
				t.Fatalf("field %q, want %q (%v)", se.Field, tc.field, err)
			}
		})
	}
}

// FuzzJobSpec: whatever bytes arrive at the submission endpoint, decode
// and validation must return a typed error or a spec whose Configs()
// lowering is well-formed — never panic, never emit NaN rates or an
// over-limit run list.
func FuzzJobSpec(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"scheme":"seec","rate":0.05}`,
		`{"rates":[0.02,0.1],"seed":3}`,
		`{"rate_from":0.02,"rate_to":0.1,"rate_step":0.02}`,
		`{"faults":"link:0.001,router:2@5000","sim_cycles":10000}`,
		`{"scheme":"chipper","rows":4,"cols":4}`,
		`{"stop_ci":0.05,"tenant":"alice"}`,
		`{"rate":1e308}`,
		`{"rates":[1e-320]}`,
		`{"rows":-8,"cols":99999999999999999999}`,
		"{\"pattern\":\"transpose\"\x00}",
		strings.Repeat(`{"rates":[`, 50),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		sp, err := DecodeJobSpec(raw)
		if err != nil {
			if _, ok := err.(*SpecError); !ok {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			return
		}
		cfgs := sp.Configs()
		if len(cfgs) == 0 || len(cfgs) > MaxRunsPerJob {
			t.Fatalf("lowered to %d configs", len(cfgs))
		}
		for _, c := range cfgs {
			if !(c.InjectionRate > 0 && c.InjectionRate <= 1) {
				t.Fatalf("rate %v escaped validation", c.InjectionRate)
			}
			if c.Warmup+c.SimCycles > MaxCyclesPerRun {
				t.Fatalf("cycles %d escaped validation", c.Warmup+c.SimCycles)
			}
			// Every accepted config must be addressable.
			if len(CacheKey(c)) != 64 {
				t.Fatal("cache key not 64 hex chars")
			}
		}
	})
}
