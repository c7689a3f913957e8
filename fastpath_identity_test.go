package seec_test

import (
	"bytes"
	"fmt"
	"testing"

	"seec"
	"seec/internal/checkpoint"
	"seec/internal/noc"
)

// genericVA wraps a VC-allocation policy in a type the fused-path
// check does not recognise (it matches a bare noc.DefaultVA only), so a
// network carrying it allocates through the VAPolicy interface with no
// memoization: the reference the fused path must reproduce exactly.
type genericVA struct{ noc.VAPolicy }

// fusedPair builds cfg twice with build: once as configured
// (DefaultVA-routed schemes take the fused path) and once forced onto
// the generic path.
func fusedPair(t *testing.T, cfg seec.Config, build func(seec.Config) (*seec.Sim, error)) (fused, ref *seec.Sim) {
	t.Helper()
	fused, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err = build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ref.Net.VA.(noc.DefaultVA); !ok {
		t.Fatalf("%s: VA policy %T is not DefaultVA", cfg.Scheme, ref.Net.VA)
	}
	ref.Net.VA = genericVA{ref.Net.VA}
	return fused, ref
}

// lockstep steps both sims cycles times and fails at the first cycle
// whose Snapshot or network RNG state differs. The fused sim's full
// invariant audit, which includes the memo-staleness check, runs every
// 250 cycles.
func lockstep(t *testing.T, what string, fused, ref *seec.Sim, cycles int) {
	t.Helper()
	for i := 0; i < cycles; i++ {
		fused.Step()
		ref.Step()
		if a, b := fused.Net.Rng.State(), ref.Net.Rng.State(); a != b {
			t.Fatalf("%s: cycle %d: RNG state %x, generic path %x", what, fused.Cycle(), a, b)
		}
		// Printed rather than DeepEqual'd: empty-sample means are NaN.
		if a, b := fmt.Sprintf("%+v", fused.Snapshot()), fmt.Sprintf("%+v", ref.Snapshot()); a != b {
			t.Fatalf("%s: cycle %d: snapshot differs\nfused:   %s\ngeneric: %s", what, fused.Cycle(), a, b)
		}
		if i%250 == 249 {
			if err := fused.Net.CheckInvariants(); err != nil {
				t.Fatalf("%s: cycle %d: %v", what, fused.Cycle(), err)
			}
		}
	}
}

// TestFusedVAIdentity is the differential gate for the fused
// allocation path and its memos: every DefaultVA-routed scheme, on two
// patterns below and past saturation, must match the same network
// forced onto the generic VAPolicy path cycle for cycle — statistics
// and RNG stream alike. Extra rows cover the routing kinds no scheme
// defaults to (YX, oblivious).
func TestFusedVAIdentity(t *testing.T) {
	cycles := 1500
	if testing.Short() {
		cycles = 400
	}
	type row struct {
		scheme  seec.Scheme
		routing seec.Routing
	}
	rows := []row{{seec.SchemeXY, ""}, {seec.SchemeWestFirst, ""}, {seec.SchemeSPIN, ""},
		{seec.SchemeSWAP, ""}, {seec.SchemeDRAIN, ""}, {seec.SchemeSEEC, ""}, {seec.SchemeMSEEC, ""},
		{seec.SchemeXY, seec.RoutingYX}, {seec.SchemeSEEC, seec.RoutingOblivious}}
	for _, rw := range rows {
		for _, pattern := range []string{"uniform_random", "transpose"} {
			for _, rate := range []float64{0.05, 0.30} {
				cfg := seec.DefaultConfig()
				cfg.Rows, cfg.Cols = 4, 4
				cfg.Scheme, cfg.Routing = rw.scheme, rw.routing
				cfg.Pattern = pattern
				cfg.InjectionRate = rate
				cfg.Seed = 11
				what := fmt.Sprintf("%s/%s/%s/rate=%.2f", rw.scheme, rw.routing, pattern, rate)
				fused, ref := fusedPair(t, cfg, seec.NewSim)
				lockstep(t, what, fused, ref, cycles)
			}
		}
	}
}

// TestFusedVAClassesIdentity extends the differential gate to what the
// synthetic rows leave out: closed-loop coherence traffic, whose six
// message classes give NICs several queue heads and the VA several
// class ranges (one unified VNet under SEEC, one VNet per class under
// XY), and wormhole buffering, where body flits trail a memoized head.
func TestFusedVAClassesIdentity(t *testing.T) {
	cycles := 3000
	if testing.Short() {
		cycles = 600
	}
	app := func(cfg seec.Config) (*seec.Sim, error) { return seec.NewAppSim(cfg, "canneal", 1<<20) }
	for _, sc := range []seec.Scheme{seec.SchemeSEEC, seec.SchemeXY} {
		cfg := seec.DefaultConfig()
		cfg.Rows, cfg.Cols = 4, 4
		cfg.Scheme = sc
		cfg.VCsPerVNet = 1
		cfg.Warmup = 0 // count every delivery, so the check below sees traffic
		fused, ref := fusedPair(t, cfg, app)
		lockstep(t, fmt.Sprintf("%s/canneal", sc), fused, ref, cycles)
		if fused.Collector().ReceivedPackets == 0 {
			t.Fatalf("%s/canneal: no packets delivered; the row tests nothing", sc)
		}
	}
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Wormhole = true
	cfg.VCDepth = 2
	cfg.InjectionRate = 0.25
	fused, ref := fusedPair(t, cfg, seec.NewSim)
	lockstep(t, "seec/wormhole", fused, ref, cycles)
}

// TestFusedVADrainIdentity is the Table 3 regime: a 1-VC adaptive SEEC
// mesh saturated until it wedges, then drained with injection paused,
// where nearly every allocation replays a memoized failure. Mid-drain
// the fused run is checkpointed and continued in a fresh Sim. Finally
// both runs rewind in place to a checkpoint from before the wedge and
// drain from there, so the restore has to drop every memo the wedged
// network recorded — VA and injection memos alike.
func TestFusedVADrainIdentity(t *testing.T) {
	early, saturate, drain := 300, 3000, 4000
	if testing.Short() {
		saturate, drain = 1500, 1000
	}
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = seec.SchemeSEEC
	cfg.VCsPerVNet = 1
	cfg.Pattern = "uniform_random"
	cfg.InjectionRate = 0.5
	cfg.Seed = 3
	save := func(s *seec.Sim) []byte {
		var b bytes.Buffer
		if err := s.SaveCheckpoint(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	fused, ref := fusedPair(t, cfg, seec.NewSim)
	lockstep(t, "load", fused, ref, early)
	ckEarly := save(fused)
	lockstep(t, "saturate", fused, ref, saturate-early)
	fused.Synthetic.Pause()
	ref.Synthetic.Pause()
	lockstep(t, "drain", fused, ref, drain/2)

	resumed, err := seec.NewSimFromCheckpoint(cfg, bytes.NewReader(save(fused)))
	if err != nil {
		t.Fatal(err)
	}
	lockstep(t, "drain after restore", resumed, ref, drain/2)

	for _, s := range []*seec.Sim{resumed, ref} {
		cr, err := checkpoint.NewReader(bytes.NewReader(ckEarly), cfg.CheckpointHash())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Net.RestoreState(cr); err != nil {
			t.Fatal(err)
		}
		s.Synthetic.Pause()
	}
	if err := resumed.Net.CheckInvariants(); err != nil {
		t.Fatalf("after in-place rewind: %v", err)
	}
	lockstep(t, "drain after in-place rewind", resumed, ref, drain)
}
