// Package exp is the experiment harness: one generator per table and
// figure in the paper's evaluation section (§4). Each generator runs
// the necessary simulations through the public seec API and returns a
// Table that cmd/figures renders as aligned text or CSV, and that
// bench_test.go's per-figure benchmarks execute.
package exp

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"seec"
	"seec/internal/plan"
	"seec/internal/telemetry"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string // e.g. "fig8", "table3"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row, stringifying the cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	row := make([]string, 0, len(t.Header))
	for _, h := range t.Header {
		row = append(row, esc(h))
	}
	fmt.Fprintln(w, strings.Join(row, ","))
	for _, r := range t.Rows {
		row = row[:0]
		for _, c := range r {
			row = append(row, esc(c))
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// Scale sets how much work the generators do. Quick keeps everything
// laptop-interactive; Full approaches the paper's sweep sizes.
type Scale struct {
	SimCycles    int64     // measured cycles per synthetic run
	MeshSizes    []int     // k for k x k meshes
	Rates        []float64 // injection-rate sweep
	AppTxns      int64     // transactions per application run
	Apps         []string  // application subset
	SatCycles    int64     // cycles per point during saturation search
	MaxAppCycles int64

	// Workers bounds the worker pool the generators fan their
	// independent simulations out across; 0 selects
	// runtime.GOMAXPROCS(0). Every job derives its RNG seed from its
	// own coordinates (Config.SweepSeed), so the rendered tables are
	// byte-identical at any worker count.
	Workers int

	// JobTimeout bounds each simulation cell's wall time; a cell past
	// its deadline is cancelled (the simulator polls its context) and
	// renders as an error cell. 0 leaves cells unbounded.
	JobTimeout time.Duration

	// Shards has no effect.
	//
	// Deprecated: every simulation runs on one goroutine. Its only user
	// is the perfbench module, which sets it to 1.
	Shards int

	// MaxFailures arms the sweep circuit breaker: after this many
	// failed cells the remaining ones are cancelled and render as empty
	// cells. 0 (the default) drains every cell regardless of failures,
	// reporting the aggregate on stderr at the end.
	MaxFailures int

	// Instrument is copied into the Config of every simulation a
	// generator launches (see seec.Config.Instrument); cmd/figures uses
	// it to attach tracers, metrics and watchdogs to figure runs.
	// Observation only — rendered tables are identical either way, and
	// an instrumented scale never reuses or forks a run (see planner).
	Instrument func(*seec.Sim) func()

	// SweepEvents, when non-nil, receives structured job-lifecycle
	// events from every cell fan-out (runner.WithTelemetry). RunEvents
	// and HeartbeatEvery are copied into each launched simulation's
	// Config (see seec.Config.Telemetry), feeding in-run heartbeats to
	// the same bus. All observation only.
	SweepEvents    *telemetry.Bus
	RunEvents      func(*seec.Sim) func(seec.RunEvent)
	HeartbeatEvery int64

	// Progress, when non-nil, is invoked with monotonic (done, total)
	// counts as cells complete, at most once per ProgressEvery
	// (0 = every completion). cmd/figures uses it to print ETA-aware
	// progress lines during long sweeps.
	Progress      func(done, total int)
	ProgressEvery time.Duration

	// Planner, when non-nil, is the memoizing sweep planner
	// (internal/plan) every simulation a generator launches runs
	// through: grid generators compile their whole cell list into one
	// reuse-aware schedule (see simCells), and chokepoint runs
	// (saturation probes, one-off measurements) resolve through its
	// cache. Its always-on layers — in-batch dedup, content-addressed
	// memoization, cost-model scheduling — are byte-identity-preserving;
	// with its WarmupShare option set, rate sweeps also fork from shared
	// warm checkpoints, which changes the sampling plan. See
	// Scale.planner for when it is not used.
	Planner *plan.Planner
}

// planner returns the planner the scale's simulations run through: the
// attached Planner, unless none is attached, or an Instrument is set
// and the attached planner is not Fresh. Then it is a fresh planner
// over the scale's own pool, telemetry and progress knobs with
// NoReuse, so every job simulates (no cache read or write, no dedup)
// and none forks (WarmupShare unset). An instrument's per-run
// artifacts come only from runs that execute, and observing must not
// change the numbers. The fresh planner has no store, so building one
// is cheap; a driver that attaches a Fresh planner keeps one ledger.
func (s Scale) planner() *plan.Planner {
	if s.Planner != nil && (s.Instrument == nil || s.Planner.Fresh()) {
		return s.Planner
	}
	// New fails only opening a store, and this planner has none.
	p, _ := plan.New(plan.Options{
		Workers: s.Workers, JobTimeout: s.JobTimeout, MaxFailures: s.MaxFailures,
		NoReuse: true, Bus: s.SweepEvents,
		Progress: s.Progress, ProgressEvery: s.ProgressEvery,
	})
	return p
}

// runSynthetic resolves one synthetic cell through the scale's
// planner. The cache key is computed before instrumentation attaches,
// matching serve.CacheKey's canonicalization — observation hooks never
// change a result's bytes, so they must not change its address either.
func (s Scale) runSynthetic(ctx context.Context, cfg seec.Config) (seec.Result, error) {
	return s.planner().RunOne(ctx, cfg, s.runSyntheticDirect)
}

// runSyntheticDirect is seec.RunSyntheticCtx with the scale's hooks
// attached, the RunFunc the planner executes on a miss. The context
// comes from the cell's runner slot, so per-job deadlines and the
// circuit breaker can interrupt a run between cycles.
func (s Scale) runSyntheticDirect(ctx context.Context, cfg seec.Config) (seec.Result, error) {
	return seec.RunSyntheticCtx(ctx, s.withHooks(cfg))
}

// runApplication resolves one application run through the scale's
// planner, keyed by plan.AppKey (the config plus the workload
// identity), running seec.RunApplicationCtx with the scale's hooks on
// a miss.
func (s Scale) runApplication(ctx context.Context, cfg seec.Config, app string, txns, maxCycles int64) (seec.AppResult, error) {
	return plan.Memoize(ctx, s.planner(), plan.AppKey(cfg, app, txns, maxCycles),
		func(ctx context.Context) (seec.AppResult, error) {
			return seec.RunApplicationCtx(ctx, s.withHooks(cfg), app, txns, maxCycles)
		})
}

// withHooks returns cfg with the scale's observation hooks attached.
func (s Scale) withHooks(cfg seec.Config) seec.Config {
	cfg.Instrument = s.Instrument
	cfg.Telemetry = s.RunEvents
	cfg.HeartbeatEvery = s.HeartbeatEvery
	return cfg
}

// Quick returns the fast preset used by tests and default CLI runs.
func Quick() Scale {
	return Scale{
		SimCycles:    8000,
		MeshSizes:    []int{4, 8},
		Rates:        []float64{0.02, 0.06, 0.10, 0.14, 0.18, 0.22, 0.26, 0.30},
		AppTxns:      3000,
		Apps:         []string{"blackscholes", "canneal", "fft"},
		SatCycles:    5000,
		MaxAppCycles: 3_000_000,
	}
}

// Medium returns a 16x16-focused preset: the quick preset already
// covers 4x4 and 8x8; this one adds the paper's largest mesh with a
// coarser rate sweep, plus the full application list.
func Medium() Scale {
	return Scale{
		SimCycles: 10000,
		MeshSizes: []int{16},
		Rates:     []float64{0.02, 0.05, 0.08, 0.11, 0.14, 0.17},
		AppTxns:   8000,
		Apps: []string{"blackscholes", "bodytrack", "canneal", "dedup",
			"fluidanimate", "swaptions", "barnes", "fft", "lu", "radix", "water-nsq"},
		SatCycles:    6000,
		MaxAppCycles: 10_000_000,
	}
}

// Full returns the paper-scale preset (Fig. 8's 4x4/8x8/16x16 meshes,
// denser rate sweeps, all eleven applications).
func Full() Scale {
	return Scale{
		SimCycles: 20000,
		MeshSizes: []int{4, 8, 16},
		Rates: []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16,
			0.18, 0.20, 0.24, 0.28, 0.32, 0.36, 0.40},
		AppTxns: 8000,
		Apps: []string{"blackscholes", "bodytrack", "canneal", "dedup",
			"fluidanimate", "swaptions", "barnes", "fft", "lu", "radix", "water-nsq"},
		SatCycles:    8000,
		MaxAppCycles: 10_000_000,
	}
}
