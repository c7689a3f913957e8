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

	// Workers and SweepEvents configure the pool of the planner a
	// scale without a Planner builds (see planner): its worker count
	// (0 selects runtime.GOMAXPROCS(0)) and the bus that receives its
	// sweep and job events. An attached Planner's own options rule
	// instead. Every job derives its RNG seed from its own coordinates
	// (Config.SweepSeed), so the rendered tables are byte-identical at
	// any worker count.
	Workers     int
	SweepEvents *telemetry.Bus

	// Shards has no effect.
	//
	// Deprecated: every simulation runs on one goroutine. Its only user
	// is the perfbench module, which sets it to 1.
	Shards int

	// Instrument is attached to every simulation a generator launches,
	// through seec.Config.Instrument or, for the simulations Table 1
	// and Table 3 build and step themselves, directly; cmd/figures uses
	// it to attach tracers, metrics and watchdogs to figure runs.
	// Observation only — rendered tables are identical either way, and
	// an instrumented scale never reuses or forks a run (see planner).
	Instrument func(*seec.Sim) func()

	// RunEvents is copied into each launched simulation's Config (see
	// seec.Config.Telemetry), feeding its in-run events to a bus.
	// Observation only.
	RunEvents func(*seec.Sim) func(seec.RunEvent)

	// Planner, when non-nil, is the memoizing sweep planner
	// (internal/plan) every cell and every simulation a generator
	// launches runs through: grid generators compile their whole cell
	// list into one reuse-aware schedule (see simCells), the other
	// generators fan their cells out on its pool (see cells), and
	// chokepoint runs (saturation probes, one-off measurements) resolve
	// through its cache. Its options are the one place a sweep's
	// workers, per-cell job timeout, failure breaker, events and
	// progress are set. Its always-on layers — in-batch dedup,
	// content-addressed memoization, cost-sorted dispatch — are
	// byte-identity-preserving; with its WarmupShare option set, rate
	// sweeps also fork from shared warm checkpoints, which changes the
	// sampling plan. See Scale.planner for what an instrumented scale
	// runs on.
	Planner *plan.Planner
}

// planner returns the planner the scale's cells and simulations run
// through:
//   - the attached Planner;
//   - with an Instrument set, the attached Planner's Fresh planner, on
//     its pool but with NoReuse and no WarmupShare, so every job
//     simulates (no cache read or write, no dedup) and none forks. An
//     instrument's per-run artifacts come only from runs that execute,
//     and observing must not change the numbers. A driver that
//     attaches a planner that is already fresh keeps one ledger;
//   - with no Planner attached, a NoReuse planner over Workers and
//     SweepEvents.
//
// The planners built here have no store, so building one is cheap.
func (s Scale) planner() *plan.Planner {
	switch {
	case s.Planner == nil:
		// New fails only opening a store, and this planner has none.
		p, _ := plan.New(plan.Options{Workers: s.Workers, NoReuse: true, Bus: s.SweepEvents})
		return p
	case s.Instrument != nil:
		return s.Planner.Fresh()
	}
	return s.Planner
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
// comes from the cell's pool slot, so per-job deadlines and the
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
	return cfg
}

// instrument attaches the scale's Instrument hook to a simulation that
// a generator builds and steps itself, and returns the finisher to
// call once its loop completes (a no-op without a hook), as the run
// loops do for the simulations they launch.
func (s Scale) instrument(sim *seec.Sim) func() {
	if s.Instrument != nil {
		if done := s.Instrument(sim); done != nil {
			return done
		}
	}
	return func() {}
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
