package exp

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"seec"
	"seec/internal/plan"
	"seec/internal/runner"
)

// cells fans n independent simulation cells out across the scale's
// worker pool and returns the results in cell order. Generators render
// per-cell failures into the cell text (a table should show "err", not
// abort), so a failing fn returns BOTH a rendered placeholder value and
// the error: the value lands in the table, the error feeds the runner's
// failure accounting. The pool drains by default (MaxFailures 0 means
// "collect everything, never trip"); a positive Scale.MaxFailures arms
// the circuit breaker, cancelling outstanding cells — those render as
// their zero value. Panicking cells are recovered by the runner and
// surface here the same way. Failures are reported on stderr with their
// cell index, attempt count, elapsed time and unwrapped cause; the
// rendered table is the product either way.
func cells[T any](s Scale, n int, fn func(ctx context.Context, i int) (T, error)) []T {
	out := make([]T, n)
	mf := s.MaxFailures
	if mf <= 0 {
		mf = n + 1 // drain everything; report failures only at the end
	}
	opts := []runner.Option{
		runner.WithWorkers(s.Workers), runner.WithJobTimeout(s.JobTimeout),
		runner.WithMaxFailures(mf), runner.WithTelemetry(s.SweepEvents),
	}
	if s.Progress != nil {
		opts = append(opts, runner.WithProgress(s.Progress),
			runner.WithProgressThrottle(s.ProgressEvery))
	}
	_, err := runner.Map(context.Background(), n, func(ctx context.Context, i int) (struct{}, error) {
		v, err := fn(ctx, i)
		out[i] = v // kept even on error: fn renders its own failure cell
		return struct{}{}, err
	}, opts...)
	if err != nil {
		reportSweepError(os.Stderr, err)
	}
	return out
}

// simCells is cells for pure synthetic-simulation grids: the generator
// hands over one Config per cell — seed left underived; the planner
// derives it via Config.SweepSeed(), the sweep convention — plus a
// render function mapping each cell's (Result, error) to its table
// value. The whole grid compiles into one schedule on the scale's
// planner (see Scale.planner): in-batch dedup, cache probes,
// warmup-prefix families and cost-sorted dispatch, all
// byte-identity-preserving except the opt-in warmup sharing. Cells
// cancelled before execution (breaker, context) render as zero values,
// and failed cells are reported by the same reportSweepError as cells'.
func simCells[T any](s Scale, cfgs []seec.Config, render func(i int, res seec.Result, err error) T) []T {
	jobs := make([]plan.Job, len(cfgs))
	for i, c := range cfgs {
		jobs[i] = plan.Job{Cfg: c, DeriveSeed: true}
	}
	outs := s.planner().Run(context.Background(), jobs, s.runSyntheticDirect)
	out := make([]T, len(cfgs))
	var failed []*runner.JobError
	for i, o := range outs {
		if !o.Done {
			continue // cancelled before executing: zero cell
		}
		if o.Err != nil {
			// The planner never retries, so every failure took one attempt.
			failed = append(failed, &runner.JobError{Index: i, Err: o.Err, Attempts: 1, Elapsed: o.Elapsed})
		}
		out[i] = render(i, o.Result, o.Err)
	}
	if len(failed) > 0 {
		reportSweepError(os.Stderr, &runner.SweepError{Failures: failed, Jobs: len(cfgs)})
	}
	return out
}

// reportSweepError prints a sweep failure so each "err" table cell has
// diagnosable context: one line per failed cell with its index, attempt
// count, elapsed wall time and the underlying cause (unwrapped from the
// *JobError), then the aggregate count. Non-sweep errors (fail-fast
// mode, cancellation) print as-is.
func reportSweepError(w *os.File, err error) {
	var se *runner.SweepError
	if !errors.As(err, &se) {
		fmt.Fprintln(w, "exp:", err)
		return
	}
	for _, f := range se.Failures {
		fmt.Fprintf(w, "exp: cell %d failed after %d attempt(s) in %v: %v\n",
			f.Index, f.Attempts, f.Elapsed.Round(time.Millisecond), f.Unwrap())
	}
	fmt.Fprintf(w, "exp: %d/%d cells failed\n", len(se.Failures), se.Jobs)
}
