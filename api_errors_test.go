package seec_test

import (
	"context"
	"strings"
	"testing"

	"seec"
)

// TestConfigErrorPaths: the public API must reject inconsistent
// configurations with descriptive errors rather than misbehaving.
func TestConfigErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*seec.Config)
		want string
	}{
		{"bad pattern", func(c *seec.Config) { c.Pattern = "mystery" }, "unknown pattern"},
		{"bad scheme", func(c *seec.Config) { c.Scheme = "quantum" }, "unknown scheme"},
		{"bad routing", func(c *seec.Config) { c.Routing = "psychic" }, "unknown routing"},
		{"tiny mesh", func(c *seec.Config) { c.Rows = 1 }, "at least 2x2"},
		{"escape without pool", func(c *seec.Config) { c.Scheme = seec.SchemeEscape; c.VCsPerVNet = 1 }, "escape VC needs"},
		{"VCT depth", func(c *seec.Config) { c.VCDepth = 2 }, "VCT requires"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := seec.DefaultConfig()
			cfg.Rows, cfg.Cols = 4, 4
			tc.mut(&cfg)
			_, err := seec.NewSim(cfg)
			if err == nil {
				t.Fatal("config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestAppSimErrors: deflection schemes and unknown applications are
// rejected for application traffic.
func TestAppSimErrors(t *testing.T) {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = seec.SchemeMinBD
	if _, err := seec.NewAppSim(cfg, "canneal", 100); err == nil {
		t.Fatal("deflection accepted application traffic")
	}
	cfg.Scheme = seec.SchemeSEEC
	if _, err := seec.NewAppSim(cfg, "halflife", 100); err == nil {
		t.Fatal("unknown application accepted")
	}
}

// TestLatencyCurveMonotoneLoadEffect: average latency at a clearly
// higher (but sub-saturation) rate must not be lower than near zero
// load — a sanity property of the whole pipeline.
func TestLatencyCurveMonotoneLoadEffect(t *testing.T) {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = seec.SchemeSEEC
	cfg.SimCycles = 8000
	var lat [2]float64
	for i, rate := range []float64{0.01, 0.12} {
		c := cfg
		c.InjectionRate = rate
		c.Seed = c.SweepSeed()
		res, err := seec.RunSyntheticCtx(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		lat[i] = res.AvgLatency
	}
	if lat[1] < lat[0] {
		t.Fatalf("latency fell with load: %.2f -> %.2f", lat[0], lat[1])
	}
}

// TestZeroLoadLatencyMatchesTheory: on a 4x4 mesh with 1-cycle routers
// and links, zero-load latency is roughly hops*(router+link) plus
// serialization for 5-flit packets and NIC interfaces — between 4 and
// 14 cycles for the Table 4 mix.
func TestZeroLoadLatencyMatchesTheory(t *testing.T) {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = seec.SchemeXY
	zero, err := seec.ZeroLoadLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if zero < 4 || zero > 14 {
		t.Fatalf("zero-load latency %.2f outside theoretical band", zero)
	}
}

// TestSnapshotFields: a snapshot after a run populates every reported
// metric coherently.
func TestSnapshotFields(t *testing.T) {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = seec.SchemeSEEC
	cfg.InjectionRate = 0.1
	sim, err := seec.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(6000)
	res := sim.Snapshot()
	if res.ReceivedPackets == 0 || res.AvgLatency <= 0 {
		t.Fatal("empty snapshot")
	}
	if res.P50Latency > res.P99Latency || int64(res.P99Latency) > res.MaxLatency {
		t.Fatalf("percentile ordering broken: p50=%d p99=%d max=%d",
			res.P50Latency, res.P99Latency, res.MaxLatency)
	}
	if res.ThroughputPackets > res.ThroughputFlits {
		t.Fatal("packet throughput exceeds flit throughput (packets are >= 1 flit)")
	}
	if res.AvgLinkEnergy <= 0 {
		t.Fatal("no link energy recorded")
	}
}

// TestResultRowRendering exercises the text row helper.
func TestResultRowRendering(t *testing.T) {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.SimCycles = 2000
	res, err := seec.RunSyntheticCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Row()
	if !strings.Contains(row, "seec") {
		t.Fatalf("row missing scheme: %q", row)
	}
}

// TestAllSchemesListed: AllSchemes covers every constructible scheme.
func TestAllSchemesListed(t *testing.T) {
	if len(seec.AllSchemes()) != 11 {
		t.Fatalf("AllSchemes lists %d", len(seec.AllSchemes()))
	}
	for _, s := range seec.AllSchemes() {
		cfg := seec.DefaultConfig()
		cfg.Rows, cfg.Cols = 4, 4
		if s == seec.SchemeEscape {
			cfg.VCsPerVNet = 2
		}
		cfg.Scheme = s
		if _, err := seec.NewSim(cfg); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}
