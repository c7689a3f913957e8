package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapPreservesOrder: out[i] must be fn(i) regardless of worker
// count or scheduling.
func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16, 100} {
		out, err := Map(context.Background(), 97, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		}, WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 97 {
			t.Fatalf("workers=%d: len=%d", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d", workers, i, v)
			}
		}
	}
}

// TestMapEmpty: zero jobs is a no-op, not a hang.
func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn called for empty map")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

// TestMapFirstErrorByIndex: with several failing jobs, the returned
// error is from the lowest index — deterministic at any worker count.
func TestMapFirstErrorByIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		_, err := Map(context.Background(), 50, func(_ context.Context, i int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		}, WithWorkers(workers))
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("workers=%d: err=%v, want job 3's error", workers, err)
		}
	}
}

// TestMapErrorStopsDispatch: after a failure, undispatched jobs must
// not start (the pool cancels). With 1 worker the cut is exact.
func TestMapErrorStopsDispatch(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	_, err := Map(context.Background(), 1000, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 4 {
			return 0, boom
		}
		return 0, nil
	}, WithWorkers(1))
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	if n := ran.Load(); n != 5 {
		t.Fatalf("ran %d jobs after serial failure at index 4", n)
	}
}

// TestMapWorkerBound: concurrency never exceeds the configured bound.
func TestMapWorkerBound(t *testing.T) {
	const bound = 3
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), 64, func(_ context.Context, i int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	}, WithWorkers(bound))
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > bound {
		t.Fatalf("observed %d concurrent jobs, bound %d", p, bound)
	}
}

// TestMapProgress: the callback fires once per job, monotonically,
// ending at (n, n), and its calls are serialized.
func TestMapProgress(t *testing.T) {
	const n = 40
	var calls []int
	out, err := Map(context.Background(), n, func(_ context.Context, i int) (int, error) {
		return i, nil
	}, WithWorkers(4), WithProgress(func(done, total int) {
		if total != n {
			t.Errorf("total=%d", total)
		}
		calls = append(calls, done) // serialized by the runner's mutex
	}))
	if err != nil || len(out) != n {
		t.Fatalf("err=%v len=%d", err, len(out))
	}
	if len(calls) != n {
		t.Fatalf("progress called %d times, want %d", len(calls), n)
	}
	seen := map[int]bool{}
	for _, d := range calls {
		if d < 1 || d > n || seen[d] {
			t.Fatalf("bad progress sequence %v", calls)
		}
		seen[d] = true
	}
}

// TestParallelSweepRace hammers Map with many concurrent sweeps over
// shared-looking state. Run under -race this catches synchronization
// bugs in the pool itself (result slice, error recording, progress).
func TestParallelSweepRace(t *testing.T) {
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				var progressed atomic.Int64
				out, err := Map(context.Background(), 200, func(_ context.Context, i int) (int64, error) {
					return total.Add(1), nil
				}, WithWorkers(4), WithProgress(func(done, tot int) {
					progressed.Add(1)
				}))
				if err != nil || len(out) != 200 {
					t.Errorf("g=%d rep=%d: err=%v len=%d", g, rep, err, len(out))
					return
				}
				if progressed.Load() != 200 {
					t.Errorf("g=%d rep=%d: progress=%d", g, rep, progressed.Load())
				}
			}
		}(g)
	}
	wg.Wait()
	if got := total.Load(); got != 8*5*200 {
		t.Fatalf("job executions %d, want %d", got, 8*5*200)
	}
}

// TestMapCancellation: cancelling the context mid-sweep returns
// promptly with ctx.Err() and leaks no goroutines.
func TestMapCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	go func() {
		<-started
		cancel()
	}()
	_, err := Map(ctx, 10_000, func(ctx context.Context, i int) (int, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(50 * time.Microsecond):
			return i, nil
		}
	}, WithWorkers(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}

	// Every worker must have exited by the time Map returns. Allow the
	// runtime a moment to retire the exiting goroutines, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// TestMapPreCancelled: a context cancelled before the call runs no
// jobs at all.
func TestMapPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := Map(ctx, 100, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		return i, nil
	}, WithWorkers(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d jobs ran under a pre-cancelled context", n)
	}
}
