package trace

import (
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Manifest is the machine-readable record written alongside every
// instrumentation output, so a trace or metrics file is reproducible
// and self-describing: what ran, with which configuration and seed, on
// which code revision, and how long it took. The gem5 standardization
// argument: results without run metadata cannot be compared or
// reproduced.
type Manifest struct {
	Tool        string    `json:"tool"`           // producing command, e.g. "seecsim"
	Args        []string  `json:"args"`           // full command line
	Config      any       `json:"config"`         // the run's Config struct
	Seed        uint64    `json:"seed"`           // PRNG seed actually used
	GitDescribe string    `json:"git_describe"`   // `git describe --always --dirty`, "" outside a repo
	GoVersion   string    `json:"go_version"`     // runtime.Version()
	GOMAXPROCS  int       `json:"gomaxprocs"`     // worker ceiling during the run
	Started     time.Time `json:"started"`        // wall-clock start
	WallSeconds float64   `json:"wall_seconds"`   // run duration
	Output      string    `json:"output"`         // the file this manifest describes
	Note        string    `json:"note,omitempty"` // free-form context (e.g. figure id)

	// Fault-injection provenance: the canonical fault spec and the
	// derived seed of the injector's private RNG stream. Empty/zero when
	// the run had no fault layer.
	FaultSpec string `json:"fault_spec,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`

	// Confidence-interval provenance, present when the run used CI
	// early stopping: the requested relative-half-width target, the
	// relative half-width actually achieved at the stop point, and the
	// number of latency batches behind the estimate. A reader can tell
	// at a glance how precise the run's latency figures are.
	StopCI         float64 `json:"stop_ci,omitempty"`
	CIRelHalfWidth float64 `json:"ci_rel_half_width,omitempty"`
	CIBatches      int     `json:"ci_batches,omitempty"`

	// Telemetry records the live-observability endpoints the run served,
	// when sweep telemetry was enabled: where /status was listening and
	// where the JSONL event log went. Provenance only — telemetry never
	// influences results.
	Telemetry *TelemetrySection `json:"telemetry,omitempty"`

	// Plan records sweep-planner provenance, present when the producing
	// sweep ran through internal/plan: how many jobs were submitted, how
	// many were served from the content-addressed cache or collapsed as
	// in-batch duplicates, how many were actually simulated, and what
	// warmup-prefix sharing did. Reuse is byte-identity-preserving, so
	// this is provenance, not a result parameter.
	Plan *PlanSection `json:"plan,omitempty"`
}

// PlanSection is the sweep-planner provenance block of a Manifest.
type PlanSection struct {
	Jobs              int64 `json:"jobs"`
	Deduped           int64 `json:"deduped"`
	MemHits           int64 `json:"mem_hits"`
	StoreHits         int64 `json:"store_hits"`
	Simulated         int64 `json:"simulated"`
	WarmupFamilies    int64 `json:"warmup_families,omitempty"`
	WarmupForks       int64 `json:"warmup_forks,omitempty"`
	WarmupCyclesSaved int64 `json:"warmup_cycles_saved,omitempty"`
	WarmupFallbacks   int64 `json:"warmup_fallbacks,omitempty"`
	Quarantined       int64 `json:"quarantined,omitempty"`
}

// TelemetrySection is the manifest's record of live sweep telemetry.
type TelemetrySection struct {
	StatusAddr string `json:"status_addr,omitempty"` // bound /status HTTP address
	EventsPath string `json:"events_path,omitempty"` // JSONL event log path
}

// NewManifest seeds a manifest with the ambient environment (git
// revision, go version, GOMAXPROCS, start time). The caller fills in
// tool/config/seed and calls Write when the run finishes.
func NewManifest(tool string, args []string) Manifest {
	return Manifest{
		Tool:        tool,
		Args:        args,
		GitDescribe: GitDescribe(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Started:     time.Now(),
	}
}

// Write finalizes the wall time and writes the manifest as indented
// JSON to path+".manifest.json", recording path as the described
// output.
func (m Manifest) Write(path string) error {
	m.Output = path
	if m.WallSeconds == 0 {
		m.WallSeconds = time.Since(m.Started).Seconds()
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path+".manifest.json", append(data, '\n'), 0o644)
}

// GitDescribe returns `git describe --always --dirty` for the current
// working tree, or "" when git or the repository is unavailable — the
// manifest is still useful without it.
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
