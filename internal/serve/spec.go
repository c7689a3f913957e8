package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"seec"
	"seec/internal/fault"
	"seec/internal/traffic"
)

// Spec limits. The gateway is multi-tenant: a single malformed or
// hostile submission must not be able to queue unbounded work.
const (
	// MaxRunsPerJob bounds how many rate points one sweep spec expands
	// to.
	MaxRunsPerJob = 128
	// MaxMeshDim bounds Rows and Cols.
	MaxMeshDim = 32
	// MaxCyclesPerRun bounds Warmup+SimCycles for one run.
	MaxCyclesPerRun = 5_000_000
)

// JobSpec is the submitted sweep specification: a base simulation
// configuration plus either a single injection rate or a sweep (an
// explicit rate list, or an inclusive arithmetic range). Zero values
// select the paper defaults (8x8 mesh, SEEC, uniform random, rate
// 0.05). The spec deliberately exposes only semantic knobs — no
// operational fields: checkpointing and instrumentation are the
// server's business, and keeping them out of the spec keeps them out
// of the cache key by construction.
type JobSpec struct {
	Scheme  string `json:"scheme,omitempty"`
	Routing string `json:"routing,omitempty"`
	Pattern string `json:"pattern,omitempty"`
	Rows    int    `json:"rows,omitempty"`
	Cols    int    `json:"cols,omitempty"`

	VCsPerVNet int `json:"vcs_per_vnet,omitempty"`
	VCDepth    int `json:"vc_depth,omitempty"`

	Seed      uint64 `json:"seed,omitempty"`
	Warmup    int64  `json:"warmup,omitempty"`
	SimCycles int64  `json:"sim_cycles,omitempty"`

	// Exactly one way to say what to sweep: a single Rate, an explicit
	// Rates list, or the inclusive range [RateFrom, RateTo] stepped by
	// RateStep. All empty = single run at the default rate.
	Rate     float64   `json:"rate,omitempty"`
	Rates    []float64 `json:"rates,omitempty"`
	RateFrom float64   `json:"rate_from,omitempty"`
	RateTo   float64   `json:"rate_to,omitempty"`
	RateStep float64   `json:"rate_step,omitempty"`

	// Faults is a fault-injection spec (internal/fault grammar, e.g.
	// "link:0.001,router:2@5000"). Canonicalized during validation so
	// equivalent spellings share cache keys.
	Faults string `json:"faults,omitempty"`

	// StopCI enables confidence-interval early stopping (relative 95%
	// CI half-width target). Runs with StopCI > 0 are not checkpointed
	// (the estimator state is not in the checkpoint format), so a crash
	// re-runs them from scratch — deterministically.
	StopCI float64 `json:"stop_ci,omitempty"`

	// Tenant attributes the job for rate limiting and budgets when the
	// X-Seec-Tenant header is absent.
	Tenant string `json:"tenant,omitempty"`
}

// SpecError is a validation failure: which field and why. The HTTP
// layer renders it as a 400; nothing invalid is ever journaled or
// enqueued.
type SpecError struct {
	Field string
	Msg   string
}

// Error implements error.
func (e *SpecError) Error() string { return fmt.Sprintf("spec: %s: %s", e.Field, e.Msg) }

// DecodeJobSpec parses and validates a submitted spec. Unknown fields
// are rejected (a typoed knob must fail loudly, not silently select a
// default), as is anything outside the documented limits. The returned
// spec is canonicalized: defaults filled where they affect the cache
// key, fault spec rewritten to its canonical string.
func DecodeJobSpec(raw []byte) (*JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var sp JobSpec
	if err := dec.Decode(&sp); err != nil {
		return nil, &SpecError{Field: "(body)", Msg: err.Error()}
	}
	// Trailing garbage after the JSON object is a malformed request.
	if dec.More() {
		return nil, &SpecError{Field: "(body)", Msg: "trailing data after spec object"}
	}
	if err := sp.validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// validate checks limits and canonicalizes in place.
func (sp *JobSpec) validate() error {
	if sp.Scheme == "" {
		sp.Scheme = string(seec.SchemeSEEC)
	}
	known := false
	for _, s := range append(seec.AllSchemes(), seec.SchemeNone) {
		if sp.Scheme == string(s) {
			known = true
			break
		}
	}
	if !known {
		return &SpecError{Field: "scheme", Msg: fmt.Sprintf("unknown scheme %q", sp.Scheme)}
	}
	switch seec.Routing(sp.Routing) {
	case seec.RoutingDefault, seec.RoutingXY, seec.RoutingYX, seec.RoutingWestFirst,
		seec.RoutingOblivious, seec.RoutingAdaptive:
	default:
		return &SpecError{Field: "routing", Msg: fmt.Sprintf("unknown routing %q", sp.Routing)}
	}
	if sp.Pattern == "" {
		sp.Pattern = "uniform_random"
	}
	if _, err := traffic.ParsePattern(sp.Pattern); err != nil {
		return &SpecError{Field: "pattern", Msg: err.Error()}
	}
	if sp.Rows == 0 {
		sp.Rows = 8
	}
	if sp.Cols == 0 {
		sp.Cols = 8
	}
	if sp.Rows < 2 || sp.Rows > MaxMeshDim || sp.Cols < 2 || sp.Cols > MaxMeshDim {
		return &SpecError{Field: "rows/cols", Msg: fmt.Sprintf("mesh %dx%d outside [2, %d]^2", sp.Rows, sp.Cols, MaxMeshDim)}
	}
	if sp.VCsPerVNet < 0 || sp.VCsPerVNet > 16 {
		return &SpecError{Field: "vcs_per_vnet", Msg: "outside [0, 16]"}
	}
	if sp.VCDepth < 0 || sp.VCDepth > 64 {
		return &SpecError{Field: "vc_depth", Msg: "outside [0, 64]"}
	}
	// Each field is bounded individually BEFORE the sum: two huge
	// positives would wrap int64 negative and sail past the sum check.
	if sp.Warmup < 0 || sp.Warmup > MaxCyclesPerRun {
		return &SpecError{Field: "warmup", Msg: fmt.Sprintf("outside [0, %d]", MaxCyclesPerRun)}
	}
	if sp.SimCycles < 0 || sp.SimCycles > MaxCyclesPerRun {
		return &SpecError{Field: "sim_cycles", Msg: fmt.Sprintf("outside [0, %d]", MaxCyclesPerRun)}
	}
	if sp.Warmup+sp.SimCycles > MaxCyclesPerRun {
		return &SpecError{Field: "sim_cycles", Msg: fmt.Sprintf("warmup+sim_cycles %d exceeds %d", sp.Warmup+sp.SimCycles, MaxCyclesPerRun)}
	}
	ways := 0
	if sp.Rate != 0 {
		ways++
	}
	if len(sp.Rates) > 0 {
		ways++
	}
	if sp.RateFrom != 0 || sp.RateTo != 0 || sp.RateStep != 0 {
		ways++
	}
	if ways > 1 {
		return &SpecError{Field: "rate", Msg: "rate, rates and rate_from/to/step are mutually exclusive"}
	}
	checkRate := func(field string, r float64) error {
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 || r > 1 {
			return &SpecError{Field: field, Msg: fmt.Sprintf("rate %v outside (0, 1]", r)}
		}
		return nil
	}
	if sp.Rate != 0 {
		if err := checkRate("rate", sp.Rate); err != nil {
			return err
		}
	}
	if len(sp.Rates) > MaxRunsPerJob {
		return &SpecError{Field: "rates", Msg: fmt.Sprintf("%d points exceed the %d-run job limit", len(sp.Rates), MaxRunsPerJob)}
	}
	for _, r := range sp.Rates {
		if err := checkRate("rates", r); err != nil {
			return err
		}
	}
	if sp.RateFrom != 0 || sp.RateTo != 0 || sp.RateStep != 0 {
		if err := checkRate("rate_from", sp.RateFrom); err != nil {
			return err
		}
		if err := checkRate("rate_to", sp.RateTo); err != nil {
			return err
		}
		if math.IsNaN(sp.RateStep) || sp.RateStep <= 0 {
			return &SpecError{Field: "rate_step", Msg: "step must be positive"}
		}
		if sp.RateTo < sp.RateFrom {
			return &SpecError{Field: "rate_to", Msg: "rate_to below rate_from"}
		}
		if n := 1 + int(math.Floor((sp.RateTo-sp.RateFrom)/sp.RateStep+1e-9)); n > MaxRunsPerJob {
			return &SpecError{Field: "rate_step", Msg: fmt.Sprintf("%d points exceed the %d-run job limit", n, MaxRunsPerJob)}
		}
	}
	if sp.Faults != "" {
		fspec, err := fault.ParseSpec(sp.Faults)
		if err != nil {
			return &SpecError{Field: "faults", Msg: err.Error()}
		}
		switch sp.Scheme {
		case string(seec.SchemeCHIPPER), string(seec.SchemeMinBD):
			return &SpecError{Field: "faults", Msg: "fault injection is not supported on deflection schemes"}
		}
		sp.Faults = fspec.String() // canonical spelling → canonical cache key
	}
	if math.IsNaN(sp.StopCI) || sp.StopCI < 0 || sp.StopCI > 0.5 {
		return &SpecError{Field: "stop_ci", Msg: "outside [0, 0.5]"}
	}
	return nil
}

// rates expands the sweep to its injection-rate list. Called on a
// validated spec.
func (sp *JobSpec) rates() []float64 {
	switch {
	case len(sp.Rates) > 0:
		return sp.Rates
	case sp.RateStep > 0:
		var out []float64
		for i := 0; ; i++ {
			r := sp.RateFrom + float64(i)*sp.RateStep
			if r > sp.RateTo+1e-9 {
				break
			}
			out = append(out, math.Min(r, sp.RateTo))
		}
		return out
	case sp.Rate != 0:
		return []float64{sp.Rate}
	}
	return []float64{0.05}
}

// Configs lowers a validated spec to one simulator Config per run. A
// single-rate job uses the spec's seed exactly as given (matching
// seec.RunSyntheticCtx); a multi-point sweep derives each point's seed
// via Config.SweepSeed, as the sweep planner does for every curve — so
// a sweep point submitted to the gateway shares its cache entry with
// the same point computed by the figures CLI.
func (sp *JobSpec) Configs() []seec.Config {
	base := seec.DefaultConfig()
	base.Scheme = seec.Scheme(sp.Scheme)
	base.Routing = seec.Routing(sp.Routing)
	base.Pattern = sp.Pattern
	base.Rows, base.Cols = sp.Rows, sp.Cols
	if sp.VCsPerVNet != 0 {
		base.VCsPerVNet = sp.VCsPerVNet
	}
	if sp.VCDepth != 0 {
		base.VCDepth = sp.VCDepth
	}
	if sp.Seed != 0 {
		base.Seed = sp.Seed
	}
	if sp.Warmup != 0 {
		base.Warmup = sp.Warmup
	}
	if sp.SimCycles != 0 {
		base.SimCycles = sp.SimCycles
	}
	base.Faults = sp.Faults
	base.StopCI = sp.StopCI
	rates := sp.rates()
	sweep := len(sp.Rates) > 0 || sp.RateStep > 0
	out := make([]seec.Config, len(rates))
	for i, r := range rates {
		c := base
		c.InjectionRate = r
		if sweep {
			c.Seed = c.SweepSeed()
		}
		out[i] = c
	}
	return out
}
