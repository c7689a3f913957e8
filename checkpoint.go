package seec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"seec/internal/checkpoint"
	"seec/internal/rng"
)

// DefaultCheckpointEvery is the periodic save interval, in cycles, when
// Config.CheckpointPath is set but Config.CheckpointEvery is not.
const DefaultCheckpointEvery int64 = 5000

// CheckpointHash identifies the configuration a Sim-level checkpoint
// binds to: the canonical JSON encoding of the Config. Every semantic
// field participates in the hash, and restoring under a different
// configuration fails with checkpoint.ErrConfigMismatch.
func (c Config) CheckpointHash() uint64 {
	c.Instrument = nil
	b, err := json.Marshal(c)
	if err != nil {
		// Config is a flat struct of basic types; Marshal cannot fail.
		panic("seec: config hash: " + err.Error())
	}
	return rng.NewSeedHash(0x5EECC4EC).String(string(b)).Seed()
}

// SaveCheckpoint writes the complete simulation state to w: network,
// RNG streams, scheme state, fault-injector state and stats collectors,
// framed with a versioned header carrying CheckpointHash. The
// checkpoint must be taken between Steps. Restoring it (see
// NewSimFromCheckpoint) and running to completion is byte-identical to
// the uninterrupted run.
//
// Deflection schemes (CHIPPER/MinBD) and coherence-driven runs are not
// checkpointable and fail with checkpoint.ErrUnsupported.
func (s *Sim) SaveCheckpoint(w io.Writer) error {
	if s.Net == nil {
		return fmt.Errorf("%w: deflection scheme %s", checkpoint.ErrUnsupported, s.Cfg.Scheme)
	}
	if s.App != nil {
		return fmt.Errorf("%w: coherence-driven runs", checkpoint.ErrUnsupported)
	}
	cw := checkpoint.NewWriter()
	if err := s.Net.SaveState(cw); err != nil {
		return err
	}
	return cw.WriteTo(w, s.Cfg.CheckpointHash())
}

// SaveCheckpointFile writes the checkpoint to path atomically and
// durably: the bytes go to a sibling temp file which is fsynced before
// being renamed over path, and the parent directory is fsynced after
// the rename. A run killed mid-save therefore leaves the previous
// complete checkpoint in place, never a truncated one — and a
// checkpoint that "exists" after a power cut is complete, because the
// data reached stable storage before the rename made it visible and
// the rename itself reached stable storage before the save was
// reported done. This is what lets the runner and the seecd gateway
// blindly resume from the same path after a crash.
func (s *Sim) SaveCheckpointFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.SaveCheckpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives a power
// cut. Filesystems that cannot sync directories (some network mounts)
// return EINVAL/ENOTSUP; durability is then the mount's problem, not a
// save failure.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// NewSimFromCheckpointFile restores a checkpoint file written by
// SaveCheckpointFile. A missing file surfaces as an os.IsNotExist
// error, which resume-capable callers treat as "start fresh".
func NewSimFromCheckpointFile(cfg Config, path string) (*Sim, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return NewSimFromCheckpoint(cfg, f)
}

// NewSimFromCheckpoint builds a Sim for cfg and restores the checkpoint
// read from r into it. The header is validated in full — magic,
// version, config hash, payload length and CRC — before the Sim is
// even constructed, so a truncated, corrupted or mismatched stream
// fails with a typed error and no partially-restored Sim escapes.
// cfg must match the saving Config.
func NewSimFromCheckpoint(cfg Config, r io.Reader) (*Sim, error) {
	cr, err := checkpoint.NewReader(r, cfg.CheckpointHash())
	if err != nil {
		return nil, err
	}
	s, err := NewSim(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Net.RestoreState(cr); err != nil {
		return nil, err
	}
	return s, nil
}
