package seec_test

import (
	"context"
	"testing"

	"seec"
)

// TestRunSyntheticAllSchemes smoke-tests the public API across every
// scheme at a benign load on a 4x4 mesh.
func TestRunSyntheticAllSchemes(t *testing.T) {
	for _, scheme := range seec.AllSchemes() {
		cfg := seec.DefaultConfig()
		cfg.Rows, cfg.Cols = 4, 4
		cfg.Scheme = scheme
		cfg.InjectionRate = 0.05
		cfg.SimCycles = 8000
		res, err := seec.RunSyntheticCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.Stalled {
			t.Errorf("%s stalled at 5%% load", scheme)
		}
		if res.ReceivedPackets < 500 {
			t.Errorf("%s: only %d packets received", scheme, res.ReceivedPackets)
		}
		if res.AvgLatency < 3 || res.AvgLatency > 60 {
			t.Errorf("%s: implausible low-load latency %.1f", scheme, res.AvgLatency)
		}
		t.Logf("%-10s lat=%.1f thr=%.3f ff=%.2f", scheme, res.AvgLatency, res.ThroughputFlits, res.FFFraction)
	}
}

// TestSaturationOrderingSEEC checks a core Fig. 9 shape: SEEC's
// saturation throughput beats the unprotected-escape... specifically,
// SEEC and mSEEC must beat west-first at uniform random on 4x4 with
// few VCs.
func TestSaturationThroughputRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation search is slow")
	}
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = seec.SchemeSEEC
	cfg.VCsPerVNet = 2
	cfg.SimCycles = 6000
	sat, res, err := seec.SaturationThroughputWith(context.Background(), cfg, 0, seec.RunSyntheticCtx)
	if err != nil {
		t.Fatal(err)
	}
	if sat < 0.02 || sat > 0.9 {
		t.Fatalf("implausible saturation %.3f", sat)
	}
	t.Logf("SEEC 4x4 UR 2VC saturation: %.3f pkt/node/cyc (lat %.1f)", sat, res.AvgLatency)
}

// TestRunApplicationAPI exercises the application path end to end.
func TestRunApplicationAPI(t *testing.T) {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = seec.SchemeSEEC
	cfg.VCsPerVNet = 2
	res, err := seec.RunApplicationCtx(context.Background(), cfg, "canneal", 3000, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < 3000 {
		t.Fatalf("only %d transactions completed (stalled=%v)", res.Completed, res.Stalled)
	}
	t.Logf("canneal: runtime=%d lat=%.1f max=%d", res.Runtime, res.AvgLatency, res.MaxLatency)
}

// TestAreaReport checks Fig. 7's headline ratio through the public API.
func TestAreaReport(t *testing.T) {
	rep := seec.AreaReport()
	byName := map[string]float64{}
	for _, b := range rep {
		byName[b.Config.Scheme] = b.Total()
	}
	if red := 1 - byName["seec"]/byName["escape"]; red < 0.65 || red > 0.8 {
		t.Fatalf("SEEC area reduction %.0f%%, want ~73%%", red*100)
	}
}
