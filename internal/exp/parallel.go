package exp

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"seec"
	"seec/internal/plan"
)

// cells fans n independent cells out on the scale planner's worker
// pool (see Scale.planner) and returns the results in cell order.
// Generators render per-cell failures into the cell text (a table
// should show "err", not abort), so a failing fn returns BOTH a
// rendered placeholder value and the error: the value lands in the
// table, the error feeds the pool's failure accounting. The planner's
// options rule the pool: its workers, per-cell JobTimeout, and
// MaxFailures breaker (0 drains every cell; a positive budget cancels
// the outstanding cells, which render as their zero value). Panicking
// cells are recovered and surface the same way. Failures are reported
// on stderr by reportFailures; the rendered table is the product
// either way.
func cells[T any](s Scale, n int, fn func(ctx context.Context, i int) (T, error)) []T {
	out := make([]T, n)
	outs := s.planner().Map(context.Background(), n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		out[i] = v // kept even on error: fn renders its own failure cell
		return err
	})
	reportFailures(os.Stderr, outs)
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
// and failed cells are reported by reportFailures, as cells' are.
func simCells[T any](s Scale, cfgs []seec.Config, render func(i int, res seec.Result, err error) T) []T {
	jobs := make([]plan.Job, len(cfgs))
	for i, c := range cfgs {
		jobs[i] = plan.Job{Cfg: c, DeriveSeed: true}
	}
	outs := s.planner().Run(context.Background(), jobs, s.runSyntheticDirect)
	out := make([]T, len(cfgs))
	for i, o := range outs {
		if o.Done { // else cancelled before executing: zero cell
			out[i] = render(i, o.Result, o.Err)
		}
	}
	reportFailures(os.Stderr, outs)
	return out
}

// reportFailures prints a sweep's failures so each "err" table cell
// has diagnosable context: one line per failed cell with its index,
// attempt count, elapsed wall time and cause, then the aggregate
// count. The pool runs every cell once, so each failure took one
// attempt. A sweep without failures prints nothing.
func reportFailures(w io.Writer, outs []plan.Outcome) {
	failed := 0
	for i, o := range outs {
		if o.Err == nil {
			continue
		}
		failed++
		fmt.Fprintf(w, "exp: cell %d failed after 1 attempt(s) in %v: %v\n",
			i, o.Elapsed.Round(time.Millisecond), o.Err)
	}
	if failed > 0 {
		fmt.Fprintf(w, "exp: %d/%d cells failed\n", failed, len(outs))
	}
}
