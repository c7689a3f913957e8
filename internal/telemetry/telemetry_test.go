package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

func TestKindNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[name] {
			t.Errorf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
}

// TestJSONLSinkParses: every emitted event must round-trip through the
// JSONL sink as one valid JSON object per line, with the kind rendered
// by name.
func TestJSONLSinkParses(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	bus := NewBus(j)
	bus.Emit(Event{Kind: EvSweepStart, Job: -1, Total: 10, InFlight: 4})
	bus.Emit(Event{Kind: EvJobStart, Job: 0, Attempt: 1})
	bus.Emit(Event{Kind: EvJobFail, Job: 0, Attempt: 2, DurNs: 5e6, Err: "boom"})
	bus.Emit(Event{Kind: EvHeartbeat, Job: 3, Cycle: 2048, Total: 9000, InFlight: 17})
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), buf.String())
	}
	var evs []map[string]any
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q not valid JSON: %v", line, err)
		}
		if m["t_ns"] == nil || m["kind"] == nil {
			t.Fatalf("line %q missing t_ns/kind", line)
		}
		evs = append(evs, m)
	}
	if evs[0]["kind"] != "sweep_start" || evs[0]["job"] != float64(-1) {
		t.Fatalf("sweep_start wire form wrong: %v", evs[0])
	}
	if evs[2]["err"] != "boom" || evs[2]["attempt"] != float64(2) {
		t.Fatalf("job_fail wire form wrong: %v", evs[2])
	}
	if evs[3]["cycle"] != float64(2048) || evs[3]["in_flight"] != float64(17) {
		t.Fatalf("heartbeat wire form wrong: %v", evs[3])
	}
}

// TestNilBusIsNoOp: a nil *Bus must accept Emit and Close (the
// zero-overhead contract for disabled telemetry).
func TestNilBusIsNoOp(t *testing.T) {
	var b *Bus
	b.Emit(Event{Kind: EvJobDone})
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAggregatorSweep folds a deterministic event stream and checks
// every counter, the latency average, and the ETA arithmetic.
func TestAggregatorSweep(t *testing.T) {
	a := NewAggregator()
	base := int64(1e15)
	a.Emit(Event{TimeNs: base, Kind: EvSweepStart, Job: -1, Total: 10, InFlight: 2})
	for i := int32(0); i < 4; i++ {
		a.Emit(Event{TimeNs: base + int64(i)*1e9, Kind: EvJobStart, Job: i, Attempt: 1})
	}
	// Three complete in 2s each, one fails by timing out.
	for i := int32(0); i < 3; i++ {
		a.Emit(Event{TimeNs: base + 3e9, Kind: EvJobDone, Job: i, Attempt: 1, DurNs: 2e9})
	}
	a.Emit(Event{TimeNs: base + 4e9, Kind: EvJobTimeout, Job: 3, Attempt: 1, DurNs: 4e9, Err: "context deadline exceeded"})
	s := a.Snapshot()
	sw := s.Sweep
	if sw.Jobs != 10 || sw.Done != 3 || sw.Failed != 1 || sw.Running != 0 {
		t.Fatalf("counts wrong: %+v", sw)
	}
	if sw.Timeouts != 1 || sw.Workers != 2 {
		t.Fatalf("timeout/workers wrong: %+v", sw)
	}
	if sw.AvgJobSec != 2.0 {
		t.Fatalf("avg job sec = %v, want 2.0", sw.AvgJobSec)
	}
	// 6 pending jobs x 2s / 2 workers = 6s.
	if sw.EtaSec != 6.0 {
		t.Fatalf("eta = %v, want 6.0", sw.EtaSec)
	}
	if sw.PercentDone != 40.0 {
		t.Fatalf("percent = %v, want 40", sw.PercentDone)
	}
	if s.Events != 9 {
		t.Fatalf("events = %d, want 9", s.Events)
	}
}

// TestAggregatorHeartbeats: cycles/sec must come from successive
// heartbeat deltas, and run_done must retire the run.
func TestAggregatorHeartbeats(t *testing.T) {
	a := NewAggregator()
	base := int64(1e15)
	a.Emit(Event{TimeNs: base, Kind: EvHeartbeat, Job: 7, Cycle: 1000, Total: 9000, InFlight: 12})
	s := a.Snapshot()
	if len(s.Runs) != 1 || s.Runs[0].Cycle != 1000 || s.Runs[0].InFlight != 12 {
		t.Fatalf("first heartbeat not tracked: %+v", s.Runs)
	}
	if s.Runs[0].CyclesPerSec != 0 {
		t.Fatalf("cps before a second heartbeat = %v, want 0", s.Runs[0].CyclesPerSec)
	}
	// 4000 cycles in 2 seconds -> 2000 cyc/s.
	a.Emit(Event{TimeNs: base + 2e9, Kind: EvHeartbeat, Job: 7, Cycle: 5000, Total: 9000, InFlight: 9})
	s = a.Snapshot()
	if got := s.Runs[0].CyclesPerSec; got != 2000 {
		t.Fatalf("cps = %v, want 2000", got)
	}
	a.Emit(Event{TimeNs: base + 3e9, Kind: EvRunDone, Job: 7, Cycle: 9000, Total: 9000})
	if s = a.Snapshot(); len(s.Runs) != 0 {
		t.Fatalf("run not retired by run_done: %+v", s.Runs)
	}
	// CI stop retires too, and counts.
	a.Emit(Event{TimeNs: base + 4e9, Kind: EvHeartbeat, Job: 8, Cycle: 100, Total: 9000})
	a.Emit(Event{TimeNs: base + 5e9, Kind: EvCIStop, Job: 8, Cycle: 4000, Total: 9000})
	if s = a.Snapshot(); len(s.Runs) != 0 || s.CIStops != 1 {
		t.Fatalf("ci_stop retirement wrong: runs=%v ciStops=%d", s.Runs, s.CIStops)
	}
}

// TestAggregatorRunEviction: the heartbeat table must stay bounded when
// runs are abandoned without a run_done.
func TestAggregatorRunEviction(t *testing.T) {
	a := NewAggregator()
	for i := 0; i < maxTrackedRuns+10; i++ {
		a.Emit(Event{TimeNs: int64(1e15) + int64(i), Kind: EvHeartbeat, Job: int32(i), Cycle: 1})
	}
	if got := len(a.Snapshot().Runs); got != maxTrackedRuns {
		t.Fatalf("tracked runs = %d, want %d", got, maxTrackedRuns)
	}
}

// promLine matches one sample line of the Prometheus text format.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+-]+|NaN)$`)

// checkPromText asserts every non-comment line parses as a sample and
// returns the sample names seen.
func checkPromText(t *testing.T, text string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("bad prometheus line: %q", line)
		}
		names[strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]] = true
	}
	return names
}

func TestPrometheusFormat(t *testing.T) {
	a := NewAggregator()
	a.Emit(Event{TimeNs: 1e15, Kind: EvSweepStart, Job: -1, Total: 5, InFlight: 2})
	a.Emit(Event{TimeNs: 1e15, Kind: EvJobStart, Job: 0, Attempt: 1})
	a.Emit(Event{TimeNs: 1e15 + 1e9, Kind: EvJobDone, Job: 0, Attempt: 1, DurNs: 1e9})
	a.Emit(Event{TimeNs: 1e15 + 1e9, Kind: EvHeartbeat, Job: 1, Cycle: 100, Total: 1000, InFlight: 3})
	var buf bytes.Buffer
	if err := a.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	names := checkPromText(t, buf.String())
	for _, want := range []string{
		"seec_sweeps_total", "seec_jobs_total", "seec_jobs_running",
		"seec_sweep_eta_seconds", "seec_job_duration_seconds_bucket",
		"seec_job_duration_seconds_sum", "seec_job_duration_seconds_count",
		"seec_runs_active", "seec_run_inflight_packets", "seec_events_total",
	} {
		if !names[want] {
			t.Errorf("metric %s missing from output", want)
		}
	}
	// Histogram buckets must be cumulative: the 1s job lands in every
	// bucket from le="1" up.
	if !strings.Contains(buf.String(), `seec_job_duration_seconds_bucket{le="1"} 1`) ||
		!strings.Contains(buf.String(), `seec_job_duration_seconds_bucket{le="+Inf"} 1`) {
		t.Fatalf("histogram not cumulative:\n%s", buf.String())
	}
}

// TestServerEndpoints boots the HTTP server on a free port and checks
// all three endpoint families respond with parseable bodies.
func TestServerEndpoints(t *testing.T) {
	a := NewAggregator()
	a.Emit(Event{TimeNs: 1e15, Kind: EvSweepStart, Job: -1, Total: 3, InFlight: 1})
	srv, err := NewServer("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	var snap Snapshot
	if err := json.Unmarshal(get("/status"), &snap); err != nil {
		t.Fatalf("/status not valid JSON: %v", err)
	}
	if snap.Sweep.Jobs != 3 {
		t.Fatalf("/status jobs = %d, want 3", snap.Sweep.Jobs)
	}
	checkPromText(t, string(get("/metrics")))
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("/debug/pprof/cmdline returned empty body")
	}
	if body := get("/debug/pprof/goroutine?debug=1"); !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("/debug/pprof/goroutine unexpected body: %.100s", body)
	}
}

func TestProgressLine(t *testing.T) {
	a := NewAggregator()
	a.Emit(Event{TimeNs: 1e15, Kind: EvSweepStart, Job: -1, Total: 4, InFlight: 2})
	a.Emit(Event{TimeNs: 1e15, Kind: EvJobStart, Job: 0, Attempt: 1})
	a.Emit(Event{TimeNs: 1e15 + 1e9, Kind: EvJobDone, Job: 0, Attempt: 1, DurNs: 1e9})
	line := a.ProgressLine()
	if !strings.Contains(line, "jobs 1/4") || !strings.Contains(line, "ETA") {
		t.Fatalf("progress line missing fields: %q", line)
	}
}
