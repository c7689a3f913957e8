// Package runner is the bounded worker-pool fan-out layer for the
// experiment harness. Every figure in the paper's evaluation is a sweep
// over independent simulations, so the natural speedup (the SimBricks
// recipe) is to run the instances concurrently and synchronize only at
// result collection. Map does exactly that: it executes independent
// jobs across a bounded pool of workers, preserves input ordering in
// the output slice, propagates the lowest-index error, and honors
// context cancellation.
//
// Determinism is the callers' side of the contract: a job must derive
// everything (in particular its RNG seed) from its own inputs, never
// from shared or ambient state, so that the results are byte-identical
// at any worker count. The runner's side is that the output slice is
// indexed by job — scheduling order never leaks into results.
//
// Failure handling has two modes. By default a returned error is
// fail-fast: remaining jobs are cancelled and the lowest-index error is
// returned raw. With WithMaxFailures(k) the pool instead keeps draining
// the queue, collecting failures as structured *JobError values, and
// trips the circuit breaker only at the k-th failure; the aggregate
// comes back as a *SweepError alongside the partial results. A
// panicking job never kills the process or the sweep in either mode:
// the worker recovers, attaches the stack to a *JobError, and keeps
// draining.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seec/internal/telemetry"
)

// JobError is one failed job: its index, the underlying error, and —
// when the job panicked — the recovered value's message and the worker
// stack at the point of the panic. Attempts and Elapsed record how much
// work the failure cost: the pool runs every job once, so Attempts is
// 1, and Elapsed is the job's wall time.
type JobError struct {
	Index    int
	Err      error
	Panicked bool
	Stack    []byte // goroutine stack, only set when Panicked
	Attempts int
	Elapsed  time.Duration
}

// Error implements error.
func (e *JobError) Error() string {
	if e.Panicked {
		return fmt.Sprintf("job %d panicked: %v", e.Index, e.Err)
	}
	return fmt.Sprintf("job %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// SweepError aggregates every job failure of a drained sweep, sorted by
// job index. Returned (with the partial results) when WithMaxFailures
// is in effect and at least one job failed.
type SweepError struct {
	Failures []*JobError // sorted by Index
	Jobs     int         // total jobs in the sweep
}

// Error implements error.
func (e *SweepError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d jobs failed", len(e.Failures), e.Jobs)
	for i, f := range e.Failures {
		if i == 3 {
			fmt.Fprintf(&b, "; ... %d more", len(e.Failures)-i)
			break
		}
		fmt.Fprintf(&b, "; %v", f)
	}
	return b.String()
}

// Unwrap exposes the individual failures to errors.Is/As.
func (e *SweepError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f
	}
	return errs
}

// options collects Map's knobs.
type options struct {
	workers       int
	progress      func(done, total int)
	progressEvery time.Duration
	jobTimeout    time.Duration
	maxFailures   int
	bus           *telemetry.Bus
}

// Option configures a Map call.
type Option func(*options)

// WithWorkers bounds the worker pool to n. n <= 0 selects
// runtime.GOMAXPROCS(0), the default.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithProgress registers a callback invoked after each job finishes,
// done or failed, with the number of finished jobs and the total.
// Calls are serialized (never concurrent with each other) and the done
// count is strictly monotonic across calls — the counter increment and
// the callback happen under one lock, so a later call always reports a
// larger done value. Calls arrive from worker goroutines in completion
// order, not job order.
func WithProgress(fn func(done, total int)) Option {
	return func(o *options) { o.progress = fn }
}

// WithProgressThrottle rate-limits the WithProgress callback: at most
// one call per d, except that the final job's completion always
// reports. Monotonicity is unaffected — skipped updates are folded into
// the next reported done count. d <= 0 disables throttling, the
// default.
func WithProgressThrottle(d time.Duration) Option {
	return func(o *options) { o.progressEvery = d }
}

// WithTelemetry emits structured sweep- and job-lifecycle events
// (sweep_start/done, job_start/done/fail/timeout/panic, breaker_trip)
// on b as the pool runs. A nil bus is a no-op.
func WithTelemetry(b *telemetry.Bus) Option {
	return func(o *options) { o.bus = b }
}

// WithJobTimeout gives each job its own deadline: the job's context is
// cancelled d after it starts. Jobs must observe their context for the
// deadline to bite (the simulator checks it periodically). d <= 0
// leaves jobs unbounded, the default.
func WithJobTimeout(d time.Duration) Option {
	return func(o *options) { o.jobTimeout = d }
}

// WithMaxFailures switches the pool from fail-fast to drain-and-collect
// with a circuit breaker: job errors are recorded as *JobError values
// and the sweep continues until k jobs have failed, at which point
// remaining jobs are cancelled. The call then returns the partial
// results together with a *SweepError aggregating every failure. Pass
// k > n for "never trip" (drain everything, report at the end).
// k <= 0 keeps the default fail-fast behavior.
func WithMaxFailures(k int) Option {
	return func(o *options) { o.maxFailures = k }
}

// Map runs fn(ctx, i) for every i in [0, n) across a bounded worker
// pool and returns the results in input order: out[i] is fn's value
// for job i.
//
// If any job fails, Map (by default) cancels the remaining undispatched
// jobs, waits for in-flight ones, and returns the error from the
// lowest-index failed job (deterministic regardless of worker count);
// see WithMaxFailures for the draining mode. A panicking job is
// recovered into a *JobError and never cancels the sweep — the
// remaining jobs still run and their results are returned. If ctx is
// cancelled first, Map stops dispatching and returns ctx's error. In
// all cases Map returns only after every worker goroutine has exited,
// so it never leaks goroutines.
func Map[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error), opts ...Option) ([]T, error) {
	o := options{}
	for _, opt := range opts {
		opt(&o)
	}
	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return []T{}, ctx.Err()
	}

	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	o.bus.Emit(telemetry.Event{Kind: telemetry.EvSweepStart, Job: -1, Total: int64(n), InFlight: int64(workers)})
	out := make([]T, n)
	var (
		mu       sync.Mutex // guards failures, doneJobs and progress calls
		doneJobs int        // finished jobs, done or failed, for progress
		lastProg time.Time  // last progress callback, for throttling
		failures []*JobError
	)
	// process executes job i end to end: telemetry, failure
	// accounting, the breaker, and progress. Shared verbatim by
	// the inline serial path and the worker goroutines, so the two
	// dispatch modes cannot drift semantically.
	process := func(i int) {
		o.bus.Emit(telemetry.Event{Kind: telemetry.EvJobStart, Job: int32(i), Attempt: 1})
		start := time.Now()
		v, err := runJob(jobCtx, i, fn, o.jobTimeout)
		elapsed := time.Since(start)
		if err != nil {
			je, ok := err.(*JobError)
			if !ok {
				je = &JobError{Index: i, Err: err}
			}
			je.Attempts, je.Elapsed = 1, elapsed
			kind := telemetry.EvJobFail
			switch {
			case je.Panicked:
				kind = telemetry.EvJobPanic
			case errors.Is(je.Err, context.DeadlineExceeded):
				kind = telemetry.EvJobTimeout
			}
			o.bus.Emit(telemetry.Event{
				Kind: kind, Job: int32(i), Attempt: 1,
				DurNs: elapsed.Nanoseconds(), Err: je.Err.Error(),
			})
			mu.Lock()
			failures = append(failures, je)
			tripped := o.maxFailures > 0 && len(failures) >= o.maxFailures
			justTripped := o.maxFailures > 0 && len(failures) == o.maxFailures
			mu.Unlock()
			if justTripped {
				o.bus.Emit(telemetry.Event{Kind: telemetry.EvBreakerTrip, Job: -1, Total: int64(o.maxFailures)})
			}
			if tripped || (o.maxFailures <= 0 && !je.Panicked) {
				cancel() // stop dispatching new jobs
			}
		} else {
			o.bus.Emit(telemetry.Event{
				Kind: telemetry.EvJobDone, Job: int32(i), Attempt: 1,
				DurNs: elapsed.Nanoseconds(),
			})
			out[i] = v
		}
		if o.progress != nil {
			mu.Lock()
			doneJobs++
			if o.progressEvery <= 0 || doneJobs == n || time.Since(lastProg) >= o.progressEvery {
				lastProg = time.Now()
				o.progress(doneJobs, n)
			}
			mu.Unlock()
		}
	}
	if workers == 1 {
		// Inline serial path: a single effective worker gains nothing
		// from goroutine dispatch, and the experiment drivers run at
		// -j 1 whenever instrumentation (or a 1-CPU box) pins them
		// there — so skip the pool and its per-job scheduling overhead
		// entirely. Same process body, same cancellation check as the
		// concurrent dispatch loop.
		for i := 0; i < n && jobCtx.Err() == nil; i++ {
			process(i)
		}
	} else {
		var (
			next atomic.Int64 // next job index to dispatch
			wg   sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n || jobCtx.Err() != nil {
						return
					}
					process(i)
				}
			}()
		}
		wg.Wait()
	}
	o.bus.Emit(telemetry.Event{Kind: telemetry.EvSweepDone, Job: -1, Total: int64(n)})
	sort.Slice(failures, func(i, j int) bool { return failures[i].Index < failures[j].Index })
	if o.maxFailures > 0 {
		if len(failures) > 0 {
			return out, &SweepError{Failures: failures, Jobs: n}
		}
		if err := ctx.Err(); err != nil {
			return out, err
		}
		return out, nil
	}
	if len(failures) > 0 {
		first := failures[0]
		if first.Panicked {
			// A recovered panic does not void the sweep: the other jobs
			// completed and their results are valid.
			return out, first
		}
		return nil, first.Err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// runJob executes one job with panic recovery and an optional per-job
// deadline. A recovered panic comes back as a *JobError carrying the
// worker stack at the point of the panic.
func runJob[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error), timeout time.Duration) (v T, err error) {
	if timeout > 0 {
		var cancelJob context.CancelFunc
		ctx, cancelJob = context.WithTimeout(ctx, timeout)
		defer cancelJob()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &JobError{Index: i, Err: fmt.Errorf("panic: %v", r), Panicked: true, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}
