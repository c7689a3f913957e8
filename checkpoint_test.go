package seec_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"seec"
	"seec/internal/checkpoint"
	"seec/internal/runner"
	"seec/internal/stats"
)

// checkpointCfg is the standard configuration of the resume-identity
// matrix: the default 8x8 mesh at a moderate load, sized so the full
// scheme x pattern x fault sweep stays test-suite friendly.
func checkpointCfg(scheme seec.Scheme, pattern, faults string) seec.Config {
	cfg := seec.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Pattern = pattern
	cfg.InjectionRate = 0.10
	cfg.SimCycles = 2000
	cfg.Warmup = 400
	cfg.Faults = faults
	return cfg
}

// checkpointableSchemes is every scheme that runs on the credit-flow
// network and can therefore checkpoint: SchemeNone plus the
// creditFlowSchemes list (integration_test.go). CHIPPER and MinBD run
// on the deflection core, which has no checkpoint support.
func checkpointableSchemes() []seec.Scheme {
	return append([]seec.Scheme{seec.SchemeNone}, creditFlowSchemes()...)
}

// saveAt runs cfg from scratch to the given absolute cycle and returns
// the checkpoint bytes taken there.
func saveAt(t *testing.T, cfg seec.Config, cycle int64) []byte {
	t.Helper()
	s, err := seec.NewSim(cfg)
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	s.Run(cycle)
	var buf bytes.Buffer
	if err := s.SaveCheckpoint(&buf); err != nil {
		t.Fatalf("SaveCheckpoint at cycle %d: %v", cycle, err)
	}
	return buf.Bytes()
}

// finish runs s to the end of its configured run and returns the Result
// plus the byte-exact network snapshot.
func finish(s *seec.Sim) (seec.Result, []byte) {
	total := s.Cfg.Warmup + s.Cfg.SimCycles
	if n := total - s.Cycle(); n > 0 {
		s.Run(n)
	}
	res := s.Snapshot()
	var snap bytes.Buffer
	s.Net.WriteSnapshot(&snap)
	return res, snap.Bytes()
}

// requireResumeIdentity is the acceptance contract of the checkpoint
// layer: save at mid-run, restore, run to completion — byte-identical
// to the uninterrupted run at every level the simulator exposes
// (Result, Collector, network snapshot).
func requireResumeIdentity(t *testing.T, cfg seec.Config) {
	t.Helper()
	mid := cfg.Warmup + cfg.SimCycles/2
	blob := saveAt(t, cfg, mid)

	ref, err := seec.NewSim(cfg)
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	refRes, refSnap := finish(ref)

	rs, err := seec.NewSimFromCheckpoint(cfg, bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if rs.Cycle() != mid {
		t.Fatalf("restore: resumed at cycle %d, saved at %d", rs.Cycle(), mid)
	}
	gotRes, gotSnap := finish(rs)
	if !reflect.DeepEqual(refRes, gotRes) {
		t.Errorf("Result differs\nuninterrupted: %+v\nresumed:       %+v", refRes, gotRes)
	}
	if !reflect.DeepEqual(ref.Collector(), rs.Collector()) {
		t.Errorf("Collector state differs")
	}
	if !bytes.Equal(refSnap, gotSnap) {
		t.Errorf("final network snapshot differs\nuninterrupted:\n%s\nresumed:\n%s", refSnap, gotSnap)
	}
}

// TestResumeIdentity is the differential matrix behind the checkpoint
// layer's acceptance contract: every checkpointable scheme, across
// traffic patterns, with and without a fault spec. The subtests keep
// their established names: "save0" is the fault-free leg and
// "save4/faults" the faulted one (the digit once named the saving
// run's shard count).
func TestResumeIdentity(t *testing.T) {
	patterns := []string{"uniform_random", "transpose", "bit_complement"}
	if testing.Short() {
		patterns = patterns[:1]
	}
	for _, scheme := range checkpointableSchemes() {
		for _, pattern := range patterns {
			for _, faults := range []string{"", "link:0.001,router:1@2000,corrupt:1e-4"} {
				name := fmt.Sprintf("%s/%s/save0", scheme, pattern)
				if faults != "" {
					name = fmt.Sprintf("%s/%s/save4/faults", scheme, pattern)
				}
				cfg := checkpointCfg(scheme, pattern, faults)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					requireResumeIdentity(t, cfg)
				})
			}
		}
	}
}

// TestCheckpointLockstep restores mid-flight and then compares the full
// network snapshot against the uninterrupted run after every single
// cycle: any divergence is pinned to the exact cycle it first appears,
// instead of surfacing cycles later in an end-of-run aggregate.
//
// The shards4 cases restore testdata/ckpt/*_shards4.ckpt instead of a
// checkpoint taken here: the last build with intra-run sharding wrote
// them from 4-shard runs of the same configurations at the same cycle.
// The config hash never covered the shard count and the sharded step
// was byte-identical to the serial one, so those files must pass the
// hash check and continue in lockstep with a serial run.
func TestCheckpointLockstep(t *testing.T) {
	const lockstepCycles = 500
	cases := []struct {
		name    string
		faults  string
		fixture string
	}{
		{"serial", "", ""},
		{"serial_faults", "link:0.001,router:1@2000,corrupt:1e-4", ""},
		{"shards4", "", "seec_uniform_shards4.ckpt"},
		{"shards4_faults", "link:0.001,router:1@2000,corrupt:1e-4", "seec_faults_shards4.ckpt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := checkpointCfg(seec.SchemeSEEC, "uniform_random", tc.faults)
			s, err := seec.NewSim(cfg)
			if err != nil {
				t.Fatalf("NewSim: %v", err)
			}
			s.Run(cfg.Warmup + 300)
			var buf bytes.Buffer
			if tc.fixture == "" {
				if err := s.SaveCheckpoint(&buf); err != nil {
					t.Fatalf("SaveCheckpoint: %v", err)
				}
			} else {
				blob, err := os.ReadFile(filepath.Join("testdata", "ckpt", tc.fixture))
				if err != nil {
					t.Fatalf("reading fixture: %v", err)
				}
				buf.Write(blob)
			}
			r, err := seec.NewSimFromCheckpoint(cfg, bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if r.Cycle() != s.Cycle() {
				t.Fatalf("restored at cycle %d, uninterrupted run is at %d", r.Cycle(), s.Cycle())
			}
			var want, got bytes.Buffer
			for i := 0; i <= lockstepCycles; i++ {
				want.Reset()
				got.Reset()
				s.Net.WriteSnapshot(&want)
				r.Net.WriteSnapshot(&got)
				if !bytes.Equal(want.Bytes(), got.Bytes()) {
					t.Fatalf("snapshot diverges %d cycles after restore (cycle %d)\nuninterrupted:\n%s\nrestored:\n%s",
						i, s.Cycle(), want.Bytes(), got.Bytes())
				}
				s.Step()
				r.Step()
			}
		})
	}
}

// TestCheckpointCorruption feeds a generated corpus of damaged
// checkpoints — truncations at every structural boundary, flipped bytes
// in each header field and in the payload, and a config-hash mismatch —
// through the restore path and requires a typed error every time, with
// zero mutation of the restore target.
func TestCheckpointCorruption(t *testing.T) {
	cfg := checkpointCfg(seec.SchemeSEEC, "uniform_random", "link:0.001,corrupt:1e-4")
	cfg.SimCycles = 600
	cfg.Warmup = 200
	blob := saveAt(t, cfg, 500)
	// Header layout: magic[0:6] version[6:8] configHash[8:16]
	// payloadLen[16:24] payloadCRC[24:28] payload[28:].
	const headerLen = 28
	if len(blob) <= headerLen {
		t.Fatalf("checkpoint unexpectedly small: %d bytes", len(blob))
	}
	trunc := func(n int) func([]byte) []byte {
		return func(b []byte) []byte { return append([]byte(nil), b[:n]...) }
	}
	flip := func(i int) func([]byte) []byte {
		return func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[i] ^= 0xFF
			return c
		}
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"empty", trunc(0), checkpoint.ErrTruncated},
		{"header_cut_short", trunc(10), checkpoint.ErrTruncated},
		{"header_cut_last_byte", trunc(headerLen - 1), checkpoint.ErrTruncated},
		{"payload_missing", trunc(headerLen), checkpoint.ErrTruncated},
		{"payload_cut", trunc(len(blob) - 7), checkpoint.ErrTruncated},
		{"magic_flip", flip(0), checkpoint.ErrCorrupt},
		{"version_flip", flip(6), checkpoint.ErrVersion},
		{"config_hash_flip", flip(8), checkpoint.ErrConfigMismatch},
		{"payload_len_huge", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[22] = 0x01 // declared payload length jumps past the sanity limit
			return c
		}, checkpoint.ErrCorrupt},
		{"crc_flip", flip(24), checkpoint.ErrCorrupt},
		{"payload_flip_first", flip(headerLen), checkpoint.ErrCorrupt},
		{"payload_flip_mid", flip(headerLen + (len(blob)-headerLen)/2), checkpoint.ErrCorrupt},
		{"payload_flip_last", flip(len(blob) - 1), checkpoint.ErrCorrupt},
		// A flipped section tag with a recomputed CRC passes container
		// validation and must instead be caught by the payload decoder's
		// structural checks.
		{"section_tag_flip_crc_fixed", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[headerLen] ^= 0xFF
			crc := crc32.ChecksumIEEE(c[headerLen:])
			c[24], c[25], c[26], c[27] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
			return c
		}, checkpoint.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			damaged := tc.mutate(blob)
			s, err := seec.NewSimFromCheckpoint(cfg, bytes.NewReader(damaged))
			if s != nil {
				t.Fatalf("restore of %s checkpoint returned a Sim", tc.name)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("restore of %s checkpoint: got error %v, want %v", tc.name, err, tc.want)
			}
		})
	}

	t.Run("config_mismatch_typed", func(t *testing.T) {
		other := cfg
		other.InjectionRate = 0.20
		s, err := seec.NewSimFromCheckpoint(other, bytes.NewReader(blob))
		if s != nil {
			t.Fatal("restore under a different config returned a Sim")
		}
		if !errors.Is(err, checkpoint.ErrConfigMismatch) {
			t.Fatalf("got error %v, want ErrConfigMismatch", err)
		}
	})

	// No partial mutation: a live network fed a damaged checkpoint via
	// the network-level Restore must be left byte-identical. Container
	// validation completes before the first field is touched.
	t.Run("no_partial_mutation", func(t *testing.T) {
		s, err := seec.NewSim(cfg)
		if err != nil {
			t.Fatalf("NewSim: %v", err)
		}
		s.Run(450)
		var netBlob bytes.Buffer
		if err := s.Net.Save(&netBlob); err != nil {
			t.Fatalf("Network.Save: %v", err)
		}
		s.Run(100) // move past the save point so a partial restore would show
		var before bytes.Buffer
		s.Net.WriteSnapshot(&before)
		for _, mutate := range []func([]byte) []byte{trunc(0), trunc(20), trunc(netBlob.Len() - 3), flip(0), flip(8), flip(24), flip(netBlob.Len() - 1)} {
			damaged := mutate(netBlob.Bytes())
			if err := s.Net.Restore(bytes.NewReader(damaged)); err == nil {
				t.Fatal("Restore of a damaged checkpoint succeeded")
			}
			var after bytes.Buffer
			s.Net.WriteSnapshot(&after)
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatal("failed Restore mutated the target network")
			}
		}
	})
}

// FuzzCheckpointRoundTrip fuzzes the save point (and the scheme,
// pattern, load and fault layer around it) on a 4x4 mesh: save wherever
// the fuzzer lands, restore, run out the clock, and require the final
// state to match the uninterrupted run bit for bit.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(51), uint16(350), false)
	f.Add(uint8(8), uint8(1), uint8(102), uint16(40), true)
	f.Add(uint8(4), uint8(3), uint8(25), uint16(499), false)
	f.Add(uint8(9), uint8(2), uint8(80), uint16(0), true)
	patterns := []string{"uniform_random", "transpose", "bit_complement", "tornado", "shuffle"}
	f.Fuzz(func(t *testing.T, schemeB, patternB, rateB uint8, stopB uint16, faulted bool) {
		cfg := seec.DefaultConfig()
		cfg.Rows, cfg.Cols = 4, 4
		schemes := checkpointableSchemes()
		cfg.Scheme = schemes[int(schemeB)%len(schemes)]
		cfg.Pattern = patterns[int(patternB)%len(patterns)]
		cfg.InjectionRate = float64(rateB%128) / 512 // [0, 0.25)
		cfg.SimCycles = 400
		cfg.Warmup = 100
		if faulted {
			cfg.Faults = "link:0.002,corrupt:1e-3,drop:1e-3"
		}
		stop := int64(stopB) % (cfg.Warmup + cfg.SimCycles)
		blob := saveAt(t, cfg, stop)

		ref, err := seec.NewSim(cfg)
		if err != nil {
			t.Fatalf("NewSim: %v", err)
		}
		refRes, refSnap := finish(ref)

		rs, err := seec.NewSimFromCheckpoint(cfg, bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("restore at cycle %d: %v", stop, err)
		}
		gotRes, gotSnap := finish(rs)
		if !reflect.DeepEqual(refRes, gotRes) {
			t.Errorf("Result differs after restore at cycle %d\nuninterrupted: %+v\nresumed:       %+v", stop, refRes, gotRes)
		}
		if !reflect.DeepEqual(ref.Collector(), rs.Collector()) {
			t.Errorf("Collector differs after restore at cycle %d", stop)
		}
		if !bytes.Equal(refSnap, gotSnap) {
			t.Errorf("final snapshot differs after restore at cycle %d", stop)
		}
	})
}

// TestStopCIObservesOnly pins the CI stopper's zero-perturbation
// contract: StopCI=0 never touches the run (all CI outputs zero), and a
// target too tight to ever fire yields exactly the fixed-cycle run with
// only the CI report fields added.
func TestStopCIObservesOnly(t *testing.T) {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = seec.SchemeSEEC
	cfg.InjectionRate = 0.10
	cfg.Warmup = 200
	// Long enough for the stopper to close its minimum batch count: the
	// run loop polls every 1024 cycles and closes at most one batch per
	// poll, so MinBatches needs > 10 * 1024 measured cycles.
	cfg.SimCycles = 15000

	fixed, err := seec.RunSyntheticCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.CIMean != 0 || fixed.CIHalfWidth != 0 || fixed.CIBatches != 0 || fixed.StopCycle != 0 {
		t.Errorf("StopCI=0 run reports CI fields: %+v", fixed)
	}

	tight := cfg
	tight.StopCI = 1e-12 // unreachable: runs the full fixed-cycle schedule
	got, err := seec.RunSyntheticCtx(context.Background(), tight)
	if err != nil {
		t.Fatal(err)
	}
	if got.StopCycle != cfg.Warmup+cfg.SimCycles {
		t.Errorf("unreachable target stopped early at cycle %d", got.StopCycle)
	}
	if got.CIBatches < stats.MinBatches {
		t.Errorf("full run closed only %d batches", got.CIBatches)
	}
	scrub := got
	scrub.Config.StopCI = 0
	scrub.CIMean, scrub.CIHalfWidth, scrub.CIBatches, scrub.StopCycle = 0, 0, 0, 0
	if !reflect.DeepEqual(fixed, scrub) {
		t.Errorf("CI observation perturbed the run\nfixed: %+v\nwith stopper: %+v", fixed, scrub)
	}

	// A reachable target stops early — and deterministically.
	loose := cfg
	loose.StopCI = 0.5
	a, err := seec.RunSyntheticCtx(context.Background(), loose)
	if err != nil {
		t.Fatal(err)
	}
	b, err := seec.RunSyntheticCtx(context.Background(), loose)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("CI-stopped run is not deterministic:\n%+v\n%+v", a, b)
	}
	if a.StopCycle == 0 || a.StopCycle > cfg.Warmup+cfg.SimCycles {
		t.Errorf("bad StopCycle %d", a.StopCycle)
	}
}

// TestStopCICoverage is the statistical validation of the CI stopper:
// across 30 seeds, the interval reported at the stop point must cover
// the fixed-cycle reference mean (the grand mean of long fixed-cycle
// runs over the same seeds) at roughly its nominal 95% rate. Batch
// means under residual autocorrelation undercover slightly, so the
// gate is 24/30 — far above chance, well below flaky. Fully
// deterministic: fixed seeds, fixed threshold.
func TestStopCICoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical sweep")
	}
	base := seec.DefaultConfig()
	base.Rows, base.Cols = 4, 4
	base.Scheme = seec.SchemeXY
	base.Pattern = "uniform_random"
	base.InjectionRate = 0.10
	base.Warmup = 500

	const seeds = 30
	type point struct {
		ci  seec.Result
		ref seec.Result
	}
	pts := make([]point, seeds)
	var wg sync.WaitGroup
	errs := make([]error, seeds)
	for i := 0; i < seeds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ciCfg := base
			ciCfg.Seed = uint64(i + 1)
			ciCfg.StopCI = 0.05
			ciCfg.SimCycles = 60000 // generous cap; the stopper ends runs long before
			res, err := seec.RunSyntheticCtx(context.Background(), ciCfg)
			if err != nil {
				errs[i] = err
				return
			}
			refCfg := base
			refCfg.Seed = uint64(i + 1)
			refCfg.SimCycles = 30000
			ref, err := seec.RunSyntheticCtx(context.Background(), refCfg)
			if err != nil {
				errs[i] = err
				return
			}
			pts[i] = point{ci: res, ref: ref}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("seed %d: %v", i+1, err)
		}
	}
	var refMean float64
	for _, p := range pts {
		refMean += p.ref.AvgLatency
	}
	refMean /= seeds

	covered, early := 0, 0
	for i, p := range pts {
		if p.ci.CIBatches < stats.MinBatches {
			t.Fatalf("seed %d: stopped with only %d batches", i+1, p.ci.CIBatches)
		}
		if p.ci.CIHalfWidth > 0.05*p.ci.CIMean {
			t.Errorf("seed %d: stopped above the precision target: ±%.3f on mean %.3f", i+1, p.ci.CIHalfWidth, p.ci.CIMean)
		}
		if p.ci.StopCycle < base.Warmup+60000 {
			early++
		}
		if refMean >= p.ci.CIMean-p.ci.CIHalfWidth && refMean <= p.ci.CIMean+p.ci.CIHalfWidth {
			covered++
		}
	}
	if covered < 24 {
		t.Errorf("CI covered the reference mean %.3f in only %d/%d seeds", refMean, covered, seeds)
	}
	if early == 0 {
		t.Error("the stopper never fired before the cycle cap; the test is not exercising early stopping")
	}
}

// TestWarmupFork validates the warmup-fork path: a fork with no
// overrides is byte-identical to the plain run (resume identity at the
// warmup boundary), overrides land in the forked run and its echoed
// Config, and forks of one snapshot do not depend on one another: run
// concurrently and in reverse order, they give the same results.
func TestWarmupFork(t *testing.T) {
	ctx := context.Background()
	cfg := checkpointCfg(seec.SchemeSEEC, "uniform_random", "")
	cfg.SimCycles = 1200
	cfg.Warmup = 300

	ref, err := seec.RunSyntheticCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := seec.WarmCheckpoint(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	forks := []seec.Fork{{}, {Seed: 99}, {Rate: 0.18}}
	res := make([]seec.Result, len(forks))
	for i, fk := range forks {
		if res[i], err = seec.RunFork(ctx, cfg, snap, fk); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(ref, res[0]) {
		t.Errorf("zero-override fork differs from the plain run\nplain: %+v\nfork:  %+v", ref, res[0])
	}
	if res[1].Config.Seed != 99 {
		t.Errorf("fork seed not echoed: %d", res[1].Config.Seed)
	}
	if res[1].AvgLatency == res[0].AvgLatency && res[1].ReceivedPackets == res[0].ReceivedPackets {
		t.Errorf("reseeded fork produced an identical measurement: %+v", res[1])
	}
	if res[2].Config.InjectionRate != 0.18 {
		t.Errorf("fork rate not echoed: %g", res[2].Config.InjectionRate)
	}
	if res[2].InjectedPackets <= res[0].InjectedPackets {
		t.Errorf("higher-rate fork injected %d packets, base fork %d", res[2].InjectedPackets, res[0].InjectedPackets)
	}

	wide, err := runner.Map(ctx, len(forks), func(ctx context.Context, i int) (seec.Result, error) {
		return seec.RunFork(ctx, cfg, snap, forks[len(forks)-1-i])
	}, runner.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range forks {
		if !reflect.DeepEqual(res[i], wide[len(forks)-1-i]) {
			t.Errorf("fork %d differs when its siblings run concurrently", i)
		}
	}
}

// TestRunnerRetryResume is the story a retrying caller relies on: a
// job dies mid-run leaving its periodic checkpoint behind, the rerun
// resumes from the checkpoint — and the final output is byte-identical
// to a never-interrupted run.
func TestRunnerRetryResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.ckpt")
	cfg := checkpointCfg(seec.SchemeSEEC, "uniform_random", "link:0.001,corrupt:1e-4")
	cfg.SimCycles = 1500
	cfg.Warmup = 300

	ref, err := seec.RunSyntheticCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The killed attempt: the run gets partway, its periodic checkpoint
	// hits disk, then the job dies.
	s, err := seec.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(900)
	if err := s.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.ResumePath = path
	c.CheckpointPath = path
	resumed, err := seec.RunSyntheticCtx(context.Background(), c)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	// The checkpoint paths are operational, not semantic; scrub them
	// from the echoed Config.
	resumed.Config.ResumePath, resumed.Config.CheckpointPath = "", ""
	if !reflect.DeepEqual(ref, resumed) {
		t.Errorf("resumed job differs from uninterrupted run\nuninterrupted: %+v\nresumed:       %+v", ref, resumed)
	}

	// A resume path pointing at nothing starts fresh rather than failing.
	fresh := cfg
	fresh.ResumePath = filepath.Join(t.TempDir(), "missing.ckpt")
	got, err := seec.RunSyntheticCtx(context.Background(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	got.Config.ResumePath = ""
	if !reflect.DeepEqual(ref, got) {
		t.Error("fresh start with a missing resume file differs from the plain run")
	}
}
