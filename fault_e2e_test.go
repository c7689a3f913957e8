package seec

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
)

// faultCfg is the shared 4x4 setup for the end-to-end fault tests:
// small enough to keep the tests fast, loaded enough that thousands of
// flits cross links while faults are live.
func faultCfg() Config {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = SchemeSEEC
	cfg.Pattern = "uniform_random"
	cfg.InjectionRate = 0.10
	cfg.SimCycles = 2000
	cfg.Warmup = 200
	cfg.Seed = 11
	return cfg
}

// TestZeroFaultSpecMatchesBaseline: attaching the fault layer with an
// all-zero spec must not perturb the simulation — every statistic of a
// run with Faults "link:0" is identical to the same run without the
// fault layer. This is the in-process face of the golden guarantee
// that shipping the fault subsystem changes nothing until it is used.
func TestZeroFaultSpecMatchesBaseline(t *testing.T) {
	base := faultCfg()
	res1, err := RunSyntheticCtx(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	withLayer := base
	withLayer.Faults = "link:0" // parses to the zero spec; injector attached but silent
	res2, err := RunSyntheticCtx(context.Background(), withLayer)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Retransmits != 0 || res2.FaultDiscards != 0 || res2.DeadLinks != 0 {
		t.Fatalf("zero spec produced fault activity: %+v", res2)
	}
	// Compare everything except Config (which records the differing
	// Faults string) and the fault counters checked above.
	res1.Config, res2.Config = Config{}, Config{}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("zero-fault run differs from baseline:\nbase: %+v\nwith: %+v", res1, res2)
	}
}

// TestFaultedRunDeterministic: the same seeded faulty configuration
// must produce byte-identical results when repeated — the injector's
// private RNG stream and ordered event processing make fault runs
// reproducible, not just fault-free ones.
func TestFaultedRunDeterministic(t *testing.T) {
	cfg := faultCfg()
	cfg.Faults = "link:0.002,corrupt:0.001,timeout:256,seed:5"
	res1, err := RunSyntheticCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunSyntheticCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("identical faulty runs differ:\n1: %+v\n2: %+v", res1, res2)
	}
	if res1.Retransmits == 0 {
		t.Fatal("faulty run produced no retransmissions; the fault layer is not engaging")
	}
}

// TestFaultedRunDeliversAllTracked: conservation under transient
// faults. After stopping injection and draining, every tracked
// transaction has been delivered exactly once — nothing is lost to a
// glitch, nothing delivered twice despite retransmission.
func TestFaultedRunDeliversAllTracked(t *testing.T) {
	cfg := faultCfg()
	cfg.Faults = "link:0.01,corrupt:0.005,drop:0.002,timeout:256,seed:9"
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(cfg.Warmup + cfg.SimCycles)
	if !s.Drain(2_000_000) {
		t.Fatalf("network failed to drain; %d transactions outstanding", s.Faults.Outstanding())
	}
	st := s.Faults.Stats()
	if st.Tracked == 0 {
		t.Fatal("no transactions tracked")
	}
	if st.Delivered != st.Tracked {
		t.Fatalf("delivered %d of %d tracked transactions", st.Delivered, st.Tracked)
	}
	if st.Retransmits == 0 || st.Discards() == 0 {
		t.Fatalf("faults not engaging: %+v", st)
	}
	if st.UnprotectedLost != 0 {
		t.Fatalf("%d damaged packets had no transaction to recover them", st.UnprotectedLost)
	}
}

// TestDeadLinkDiagnosisAndRecovery: a mid-run permanent link fault must
// show up by name in the stall diagnosis and the snapshot dump, routing
// must keep the network live around the dead links, and draining must
// still deliver every tracked transaction.
func TestDeadLinkDiagnosisAndRecovery(t *testing.T) {
	cfg := faultCfg()
	cfg.InjectionRate = 0.05
	cfg.Faults = "linkdown:2@500,timeout:256,seed:3"
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(cfg.Warmup + cfg.SimCycles)
	fi := s.Faults
	if fi.Stats().LinksKilled == 0 {
		t.Fatal("scheduled link fault never committed")
	}
	dead := fi.DeadLinkNames()
	sum := s.Net.StallSummary()
	if !reflect.DeepEqual(sum.FaultedLinks, dead) {
		t.Fatalf("StallSummary names %v, injector says %v", sum.FaultedLinks, dead)
	}
	text := sum.String()
	var snap bytes.Buffer
	s.Net.WriteSnapshot(&snap)
	for _, name := range dead {
		if !strings.Contains(text, "dead link: "+name) {
			t.Fatalf("stall diagnosis does not name dead link %s:\n%s", name, text)
		}
		if !strings.Contains(snap.String(), "dead link: "+name) {
			t.Fatalf("snapshot does not name dead link %s", name)
		}
	}
	if !strings.Contains(snap.String(), "faulted resources") {
		t.Fatalf("snapshot missing the faulted-resources section:\n%s", snap.String())
	}
	if !s.Drain(2_000_000) {
		t.Fatalf("network failed to drain around dead links; %d outstanding", fi.Outstanding())
	}
	st := fi.Stats()
	if st.Delivered != st.Tracked {
		t.Fatalf("delivered %d of %d tracked transactions with dead links", st.Delivered, st.Tracked)
	}
}

// TestFaultSpecRejectedWhereUnsupported: deflection schemes have no
// credit-flow NICs to retransmit from, and the coherence engine retains
// packet pointers the retransmission path would invalidate — both
// combinations must be refused at construction, not at crash time.
func TestFaultSpecRejectedWhereUnsupported(t *testing.T) {
	cfg := faultCfg()
	cfg.Scheme = SchemeCHIPPER
	cfg.Faults = "link:0.001"
	if _, err := NewSim(cfg); err == nil {
		t.Fatal("deflection scheme accepted a fault spec")
	}
	app := faultCfg()
	app.Faults = "link:0.001"
	if _, err := NewAppSim(app, "fft", 100); err == nil {
		t.Fatal("application mode accepted a fault spec")
	}
	badSpec := faultCfg()
	badSpec.Faults = "link:nope"
	if _, err := NewSim(badSpec); err == nil {
		t.Fatal("malformed fault spec accepted")
	}
}

// TestFaultSweepSeedIndependence: the fault spec participates in
// SweepSeed derivation (two sweeps differing only in the spec must not
// share RNG streams), while the empty spec leaves seeds untouched so
// existing goldens survive.
func TestFaultSweepSeedIndependence(t *testing.T) {
	a := faultCfg()
	b := faultCfg()
	b.Faults = "link:0.001"
	if a.SweepSeed() == b.SweepSeed() {
		t.Fatal("fault spec does not alter the sweep seed")
	}
	c := faultCfg()
	c.Faults = ""
	if a.SweepSeed() != c.SweepSeed() {
		t.Fatal("empty fault spec altered the sweep seed")
	}
}
