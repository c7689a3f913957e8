package seec_test

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"seec"
)

// collectRunEvents runs cfg with a Telemetry hook that records every
// run event in order.
func collectRunEvents(t *testing.T, cfg seec.Config) ([]seec.RunEvent, seec.Result) {
	t.Helper()
	var evs []seec.RunEvent
	cfg.Telemetry = func(*seec.Sim) func(seec.RunEvent) {
		return func(e seec.RunEvent) { evs = append(evs, e) }
	}
	res, err := seec.RunSyntheticCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return evs, res
}

func smallTelemetryConfig() seec.Config {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.InjectionRate = 0.10
	cfg.Warmup = 1000
	cfg.SimCycles = 9000 // total 10000: heartbeats at 2048..8192
	return cfg
}

// TestRunTelemetryHeartbeats pins the run-loop event stream: ordered
// monotonic heartbeats with the planned total and a live in-flight
// count, terminated by exactly one RunDone — and identical results with
// telemetry on and off (the observes-only contract).
func TestRunTelemetryHeartbeats(t *testing.T) {
	cfg := smallTelemetryConfig()
	plain, err := seec.RunSyntheticCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs, res := collectRunEvents(t, cfg)
	scrub := res
	scrub.Config.Telemetry = nil // Result.Config carries the hook pointer
	if !reflect.DeepEqual(plain, scrub) {
		t.Errorf("telemetry perturbed the run:\nplain: %+v\nwith:  %+v", plain, scrub)
	}
	var beats []seec.RunEvent
	for _, e := range evs {
		if e.Kind == seec.RunHeartbeat {
			beats = append(beats, e)
		}
	}
	// 10000 cycles at the default 2048 period: beats at 2048, 4096,
	// 6144, 8192.
	if len(beats) != 4 {
		t.Fatalf("heartbeats = %d, want 4: %+v", len(beats), beats)
	}
	for i, b := range beats {
		if b.Total != 10000 {
			t.Errorf("heartbeat %d Total = %d, want 10000", i, b.Total)
		}
		if i > 0 && b.Cycle <= beats[i-1].Cycle {
			t.Errorf("heartbeat cycles not increasing: %+v", beats)
		}
	}
	last := evs[len(evs)-1]
	if last.Kind != seec.RunDone || last.Cycle != 10000 {
		t.Fatalf("last event = %+v, want RunDone at cycle 10000", last)
	}
	dones := 0
	for _, e := range evs {
		if e.Kind == seec.RunDone {
			dones++
		}
	}
	if dones != 1 {
		t.Fatalf("RunDone emitted %d times", dones)
	}
}

// TestRunTelemetryHeartbeatEvery: Config.HeartbeatEvery overrides the
// period (quantized up to the loop's 1024-cycle chunks).
func TestRunTelemetryHeartbeatEvery(t *testing.T) {
	cfg := smallTelemetryConfig()
	cfg.HeartbeatEvery = 1024
	evs, _ := collectRunEvents(t, cfg)
	beats := 0
	for _, e := range evs {
		if e.Kind == seec.RunHeartbeat {
			beats++
		}
	}
	// Beats at 1024..9216 (the final chunk ends the run before 10240).
	if beats != 9 {
		t.Fatalf("heartbeats = %d, want 9", beats)
	}
}

// TestRunTelemetryCheckpointEvents: periodic and final saves emit
// RunCheckpointSave; resuming emits RunCheckpointRestore first.
func TestRunTelemetryCheckpointEvents(t *testing.T) {
	cfg := smallTelemetryConfig()
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = 4096
	evs, _ := collectRunEvents(t, cfg)
	var saves []int64
	for _, e := range evs {
		if e.Kind == seec.RunCheckpointSave {
			saves = append(saves, e.Cycle)
		}
	}
	// Periodic saves at 4096 and 8192, final save at 10000.
	if len(saves) != 3 || saves[len(saves)-1] != 10000 {
		t.Fatalf("checkpoint saves = %v, want [4096 8192 10000]", saves)
	}

	cfg.ResumePath = path
	evs, _ = collectRunEvents(t, cfg)
	if len(evs) == 0 || evs[0].Kind != seec.RunCheckpointRestore || evs[0].Cycle != 10000 {
		t.Fatalf("first event after resume = %+v, want RunCheckpointRestore at 10000", evs)
	}
	if last := evs[len(evs)-1]; last.Kind != seec.RunDone {
		t.Fatalf("last event after resume = %+v, want RunDone", last)
	}
}

// TestRunTelemetryCIStop: a reachable CI target emits RunCIStop with
// the batch count, before RunDone, at the reported StopCycle.
func TestRunTelemetryCIStop(t *testing.T) {
	cfg := smallTelemetryConfig()
	cfg.Warmup = 200
	cfg.SimCycles = 15000
	cfg.StopCI = 0.5
	evs, res := collectRunEvents(t, cfg)
	var stop *seec.RunEvent
	for i, e := range evs {
		if e.Kind == seec.RunCIStop {
			if stop != nil {
				t.Fatal("RunCIStop emitted twice")
			}
			stop = &evs[i]
		}
	}
	if stop == nil {
		t.Fatalf("no RunCIStop in %+v", evs)
	}
	if stop.Attempt <= 0 {
		t.Errorf("RunCIStop batches = %d, want > 0", stop.Attempt)
	}
	if res.StopCycle == 0 || stop.Cycle != res.StopCycle {
		t.Errorf("RunCIStop cycle %d != StopCycle %d", stop.Cycle, res.StopCycle)
	}
	if last := evs[len(evs)-1]; last.Kind != seec.RunDone || last.Cycle != res.StopCycle {
		t.Errorf("last event = %+v, want RunDone at %d", last, res.StopCycle)
	}
}

// TestRunTelemetryApplication: the application run loop emits
// heartbeats and a final RunDone too.
func TestRunTelemetryApplication(t *testing.T) {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	var evs []seec.RunEvent
	cfg.Telemetry = func(*seec.Sim) func(seec.RunEvent) {
		return func(e seec.RunEvent) { evs = append(evs, e) }
	}
	if _, err := seec.RunApplicationCtx(context.Background(), cfg, "stress", 3000, 2_000_000); err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("no run events from application run")
	}
	if last := evs[len(evs)-1]; last.Kind != seec.RunDone {
		t.Fatalf("last event = %+v, want RunDone", last)
	}
	beats := 0
	for _, e := range evs {
		if e.Kind == seec.RunHeartbeat {
			beats++
		}
		if e.Kind == seec.RunHeartbeat && e.Total != 2_000_000 {
			t.Fatalf("app heartbeat Total = %d, want 2000000", e.Total)
		}
	}
	if beats == 0 {
		t.Fatal("no heartbeats from application run")
	}
}

// TestTelemetryOptionsStart covers the CLI-facing aggregation: a
// started session wires Config, assigns distinct run ids, and serves
// /status.
func TestTelemetryOptionsStart(t *testing.T) {
	var o seec.TelemetryOptions
	if o.Enabled() {
		t.Fatal("zero TelemetryOptions reports enabled")
	}
	tel, err := o.Start()
	if err != nil || tel != nil {
		t.Fatalf("disabled Start = %v, %v; want nil, nil", tel, err)
	}
	// Nil-receiver methods must be safe.
	if tel.Addr() != "" || tel.ProgressLine() != "" || tel.Hook() != nil || tel.Close() != nil {
		t.Fatal("nil *Telemetry methods not no-ops")
	}

	o.StatusAddr = "127.0.0.1:0"
	tel, err = o.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	if tel.Addr() == "" {
		t.Fatal("no bound address")
	}
	cfg := smallTelemetryConfig()
	tel.Attach(&cfg)
	if cfg.Telemetry == nil {
		t.Fatal("Attach did not set Config.Telemetry")
	}
	if _, err := seec.RunSyntheticCtx(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	snap := tel.Agg.Snapshot()
	if snap.Events == 0 {
		t.Fatal("no events reached the aggregator")
	}
	if snap.Runs != nil {
		t.Fatalf("finished run still live in aggregator: %+v", snap.Runs)
	}
}
