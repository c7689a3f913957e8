package seec_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"seec"
	"seec/internal/checkpoint"
)

// TestCheckpointFixtureRestore restores the checked-in format-v1
// checkpoint blobs testdata/ckpt/*_v1.ckpt — written by the pre-slab
// simulator, before the flat memory layout and the normalized
// round-robin counters existed — and requires the current code to
// either reproduce the uninterrupted run bit for bit or refuse with a
// typed checkpoint error. What it forbids is the third outcome: a
// restore that "succeeds" into a silently different simulation, which
// no later test would attribute to the checkpoint layer.
//
// The fixtures were saved at absolute cycle 1400 from the standard
// resume-identity configuration (checkpointCfg). If the format ever
// moves to v2, regenerate them from the last v1-writing commit — their
// whole point is that the writer predates the reader.
func TestCheckpointFixtureRestore(t *testing.T) {
	const savedCycle = 1400
	cases := []struct {
		file   string
		scheme seec.Scheme
		faults string
	}{
		{"seec_uniform_v1.ckpt", seec.SchemeSEEC, ""},
		{"escape_faults_v1.ckpt", seec.SchemeEscape, "link:0.001,router:1@2000,corrupt:1e-4"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			t.Parallel()
			blob, err := os.ReadFile(filepath.Join("testdata", "ckpt", tc.file))
			if err != nil {
				t.Fatalf("reading fixture: %v", err)
			}
			cfg := checkpointCfg(tc.scheme, "uniform_random", tc.faults)
			rs, err := seec.NewSimFromCheckpoint(cfg, bytes.NewReader(blob))
			if err != nil {
				// A refusal is acceptable only when it is typed: callers
				// dispatch on these to distinguish "old format, rerun from
				// scratch" from "damaged file".
				for _, typed := range []error{
					checkpoint.ErrVersion, checkpoint.ErrCorrupt,
					checkpoint.ErrTruncated, checkpoint.ErrConfigMismatch,
				} {
					if errors.Is(err, typed) {
						t.Skipf("fixture declined with typed error: %v", err)
					}
				}
				t.Fatalf("fixture restore failed with untyped error: %v", err)
			}
			if got := rs.Cycle(); got != savedCycle {
				t.Fatalf("fixture resumed at cycle %d, saved at %d", got, savedCycle)
			}

			ref, err := seec.NewSim(cfg)
			if err != nil {
				t.Fatalf("NewSim: %v", err)
			}
			refRes, refSnap := finish(ref)
			gotRes, gotSnap := finish(rs)
			if !reflect.DeepEqual(refRes, gotRes) {
				t.Errorf("Result differs from uninterrupted run\nuninterrupted: %+v\nresumed:       %+v", refRes, gotRes)
			}
			if !reflect.DeepEqual(ref.Collector(), rs.Collector()) {
				t.Error("Collector state differs from uninterrupted run")
			}
			if !bytes.Equal(refSnap, gotSnap) {
				t.Error("final network snapshot differs from uninterrupted run")
			}
		})
	}
}
