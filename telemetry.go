package seec

import (
	"os"
	"sync/atomic"

	"seec/internal/telemetry"
)

// DefaultHeartbeatEvery is the run-loop telemetry heartbeat period in
// cycles when Config.HeartbeatEvery is zero. Heartbeats piggyback on
// the run loop's existing chunking, so the period is quantized to the
// 1024-cycle chunk size; the hot per-cycle Step path is untouched.
const DefaultHeartbeatEvery = 2048

// RunEvent is one run-level lifecycle event, emitted by the run loops
// (RunSyntheticCtx, RunApplicationCtx) to the callback installed via
// Config.Telemetry. It is the sweep telemetry's own event type, so a
// run event is already in wire form: the run loops fill Kind, Cycle
// and Total, plus InFlight on a heartbeat, the CI batches observed in
// Attempt on a CI stop and the verdict in Err on a watchdog stall, and
// Telemetry.Hook only stamps the run id into Job. Passed by value and
// allocation-free apart from the rare stall verdict: with
// Config.Telemetry nil the run loop pays one nil check per chunk and
// nothing else.
type RunEvent = telemetry.Event

// The run-event kinds are the telemetry kinds of the same names.
const (
	// RunHeartbeat: periodic progress (Cycle, Total = planned end
	// cycle, InFlight = packets in flight).
	RunHeartbeat = telemetry.EvHeartbeat
	// RunDone: the run loop finished (Cycle = final cycle).
	RunDone = telemetry.EvRunDone
	// RunCheckpointSave: a periodic or final checkpoint was written.
	RunCheckpointSave = telemetry.EvCheckpointSave
	// RunCheckpointRestore: the run restored from a checkpoint instead
	// of starting fresh (Cycle = the restored cycle).
	RunCheckpointRestore = telemetry.EvCheckpointRestore
	// RunCIStop: CI early stopping ended the run before its cycle
	// budget (Cycle = stop cycle, Attempt = CI batches observed).
	RunCIStop = telemetry.EvCIStop
	// RunWatchdogStall: the stall watchdog issued a no-ejection-progress
	// verdict (Cycle = current cycle, Err = the verdict).
	RunWatchdogStall = telemetry.EvWatchdogStall
)

// TelemetryOptions configures live sweep telemetry for a CLI run: an
// HTTP status server, a JSONL event log, or both. The zero value is
// fully disabled.
type TelemetryOptions struct {
	// StatusAddr, when non-empty, is the listen address for the HTTP
	// server exposing /status (JSON snapshot), /metrics (Prometheus
	// text format) and /debug/pprof. ":0" picks a free port.
	StatusAddr string
	// EventsPath, when non-empty, appends every telemetry event as one
	// JSON object per line to this file.
	EventsPath string
	// HeartbeatEvery overrides the in-run heartbeat period in cycles
	// (0 selects DefaultHeartbeatEvery).
	HeartbeatEvery int64
}

// Enabled reports whether any telemetry output is requested.
func (o TelemetryOptions) Enabled() bool {
	return o.StatusAddr != "" || o.EventsPath != ""
}

// Telemetry is a live telemetry session: the event bus the runner and
// run loops feed, the aggregator behind it, and (optionally) the HTTP
// server and JSONL log. Built by TelemetryOptions.Start.
type Telemetry struct {
	Bus *telemetry.Bus
	Agg *telemetry.Aggregator

	srv            *telemetry.Server
	heartbeatEvery int64
	runSeq         atomic.Int32
}

// Start opens the requested sinks and returns the live session, or nil
// if o is disabled (callers nil-check; every method on a nil *Telemetry
// is a safe no-op where it matters: Hook returns nothing to install).
func (o TelemetryOptions) Start() (*Telemetry, error) {
	if !o.Enabled() {
		return nil, nil
	}
	t := &Telemetry{Agg: telemetry.NewAggregator(), heartbeatEvery: o.HeartbeatEvery}
	t.Bus = telemetry.NewBus(t.Agg)
	if o.EventsPath != "" {
		f, err := os.OpenFile(o.EventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		t.Bus.Attach(telemetry.NewJSONL(f))
	}
	if o.StatusAddr != "" {
		srv, err := telemetry.NewServer(o.StatusAddr, t.Agg)
		if err != nil {
			t.Bus.Close()
			return nil, err
		}
		t.srv = srv
	}
	return t, nil
}

// Addr returns the bound HTTP address ("" when no server is running).
func (t *Telemetry) Addr() string {
	if t == nil || t.srv == nil {
		return ""
	}
	return t.srv.Addr()
}

// Attach wires this session into cfg: the run loop will emit
// heartbeats and lifecycle events onto the bus. Nil-receiver safe.
func (t *Telemetry) Attach(cfg *Config) {
	if t == nil {
		return
	}
	cfg.Telemetry = t.Hook()
	cfg.HeartbeatEvery = t.heartbeatEvery
}

// Hook returns the Config.Telemetry factory: each simulation it is
// invoked on gets a fresh run id, stamped into its events' Job field,
// so concurrent runs (saturation-search probes, forked measurement
// runs) produce distinguishable heartbeat streams. Returns nil on a
// nil receiver, which disables run events.
func (t *Telemetry) Hook() func(*Sim) func(RunEvent) {
	if t == nil {
		return nil
	}
	return func(_ *Sim) func(RunEvent) {
		id := t.runSeq.Add(1) - 1
		return func(e RunEvent) {
			e.Job = id
			t.Bus.Emit(e)
		}
	}
}

// ProgressLine returns a one-line human progress summary with ETA ("" on
// a nil receiver).
func (t *Telemetry) ProgressLine() string {
	if t == nil {
		return ""
	}
	return t.Agg.ProgressLine()
}

// Close stops the HTTP server and flushes/closes every sink.
// Nil-receiver safe.
func (t *Telemetry) Close() error {
	if t == nil {
		return nil
	}
	var first error
	if t.srv != nil {
		first = t.srv.Close()
	}
	if err := t.Bus.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
