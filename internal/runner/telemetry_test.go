package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"seec/internal/telemetry"
)

// collector is a test Sink that records every event.
type collector struct {
	mu  sync.Mutex
	evs []telemetry.Event
}

func (c *collector) Emit(e telemetry.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, e)
	c.mu.Unlock()
}
func (c *collector) Close() error { return nil }

func (c *collector) byKind(k telemetry.Kind) []telemetry.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []telemetry.Event
	for _, e := range c.evs {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// TestProgressMonotonic pins the ordering guarantee: under many
// concurrent workers the done counts seen by the progress callback must
// be strictly increasing and end exactly at n.
func TestProgressMonotonic(t *testing.T) {
	const n = 500
	var (
		mu   sync.Mutex
		seen []int
	)
	_, err := Map(context.Background(), n, func(_ context.Context, i int) (int, error) {
		return i, nil
	}, WithWorkers(16), WithProgress(func(done, total int) {
		if total != n {
			t.Errorf("total = %d, want %d", total, n)
		}
		mu.Lock()
		seen = append(seen, done)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("progress called %d times, want %d", len(seen), n)
	}
	for k := 1; k < len(seen); k++ {
		if seen[k] <= seen[k-1] {
			t.Fatalf("done counts not strictly increasing: seen[%d]=%d after seen[%d]=%d",
				k, seen[k], k-1, seen[k-1])
		}
	}
	if last := seen[len(seen)-1]; last != n {
		t.Fatalf("final done = %d, want %d", last, n)
	}
}

// TestProgressThrottle: with a large throttle window only the final
// completion is guaranteed to report; counts must stay monotonic and
// the last call must be done == n.
func TestProgressThrottle(t *testing.T) {
	const n = 100
	var (
		mu   sync.Mutex
		seen []int
	)
	_, err := Map(context.Background(), n, func(_ context.Context, i int) (int, error) {
		return i, nil
	}, WithWorkers(8), WithProgressThrottle(time.Hour), WithProgress(func(done, total int) {
		mu.Lock()
		seen = append(seen, done)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	// First completion fires (lastProg zero => window elapsed), final
	// completion always fires; intermediate ones are suppressed.
	if len(seen) >= n {
		t.Fatalf("throttle ineffective: %d calls for %d jobs", len(seen), n)
	}
	for k := 1; k < len(seen); k++ {
		if seen[k] <= seen[k-1] {
			t.Fatalf("throttled counts not monotonic: %v", seen)
		}
	}
	if last := seen[len(seen)-1]; last != n {
		t.Fatalf("final throttled done = %d, want %d", last, n)
	}
}

// TestMapTelemetryEvents checks the full event stream of a sweep with
// successes and a terminal failure.
func TestMapTelemetryEvents(t *testing.T) {
	c := &collector{}
	bus := telemetry.NewBus(c)
	_, err := Map(context.Background(), 5, func(_ context.Context, i int) (int, error) {
		if i == 4 {
			return 0, errors.New("terminal")
		}
		return i, nil
	}, WithWorkers(2), WithMaxFailures(10), WithTelemetry(bus))
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SweepError", err)
	}
	if len(se.Failures) != 1 || se.Failures[0].Index != 4 {
		t.Fatalf("failures = %v", se.Failures)
	}
	// Every job runs once, and the failure reports that one attempt.
	if f := se.Failures[0]; f.Attempts != 1 || f.Elapsed <= 0 {
		t.Fatalf("JobError attempts/elapsed not populated: %+v", f)
	}

	if ss := c.byKind(telemetry.EvSweepStart); len(ss) != 1 || ss[0].Total != 5 || ss[0].InFlight != 2 {
		t.Fatalf("sweep_start wrong: %+v", ss)
	}
	if sd := c.byKind(telemetry.EvSweepDone); len(sd) != 1 {
		t.Fatalf("sweep_done wrong: %+v", sd)
	}
	if starts := c.byKind(telemetry.EvJobStart); len(starts) != 5 {
		t.Fatalf("job_start count = %d, want 5", len(starts))
	}
	if dones := c.byKind(telemetry.EvJobDone); len(dones) != 4 {
		t.Fatalf("job_done count = %d, want 4", len(dones))
	}
	fails := c.byKind(telemetry.EvJobFail)
	if len(fails) != 1 || fails[0].Job != 4 || fails[0].Attempt != 1 || fails[0].Err != "terminal" {
		t.Fatalf("job_fail wrong: %+v", fails)
	}
	// Ordering: sweep_start first, sweep_done last.
	c.mu.Lock()
	first, last := c.evs[0], c.evs[len(c.evs)-1]
	c.mu.Unlock()
	if first.Kind != telemetry.EvSweepStart || last.Kind != telemetry.EvSweepDone {
		t.Fatalf("sweep bracketing wrong: first=%v last=%v", first.Kind, last.Kind)
	}
}

// TestMapTelemetryPanicAndTimeout: panics and deadline overruns must be
// classified as their own kinds and the breaker trip must emit exactly
// once.
func TestMapTelemetryPanicAndTimeout(t *testing.T) {
	c := &collector{}
	bus := telemetry.NewBus(c)
	_, err := Map(context.Background(), 3, func(ctx context.Context, i int) (int, error) {
		switch i {
		case 0:
			panic("boom")
		case 1:
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return i, nil
	}, WithWorkers(1), WithJobTimeout(20*time.Millisecond), WithMaxFailures(2), WithTelemetry(bus))
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SweepError", err)
	}
	if p := c.byKind(telemetry.EvJobPanic); len(p) != 1 || p[0].Job != 0 {
		t.Fatalf("job_panic wrong: %+v", p)
	}
	if to := c.byKind(telemetry.EvJobTimeout); len(to) != 1 || to[0].Job != 1 {
		t.Fatalf("job_timeout wrong: %+v", to)
	}
	if tr := c.byKind(telemetry.EvBreakerTrip); len(tr) != 1 || tr[0].Total != 2 {
		t.Fatalf("breaker_trip wrong: %+v", tr)
	}
	for _, f := range se.Failures {
		if f.Attempts != 1 || f.Elapsed <= 0 {
			t.Fatalf("failure %d missing attempts/elapsed: %+v", f.Index, f)
		}
	}
}

// TestMapNilBus: WithTelemetry(nil) and no telemetry at all must both
// run cleanly (the disabled path).
func TestMapNilBus(t *testing.T) {
	out, err := Map(context.Background(), 4, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	}, WithTelemetry(nil))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out) != "[0 1 4 9]" {
		t.Fatalf("out = %v", out)
	}
}
