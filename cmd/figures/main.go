// Command figures regenerates the tables and figures of the paper's
// evaluation section (§4) as aligned text (or CSV) on stdout.
//
// Usage:
//
//	figures -fig all            # everything, quick scale
//	figures -fig 8 -scale full  # Fig. 8 at paper scale
//	figures -fig table3 -csv
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"seec"
	"seec/internal/exp"
	"seec/internal/plan"
)

func main() {
	fig := flag.String("fig", "all", "which figure/table: table1, 7, 8, 9, 10a, 10b, 11, 12, 13, 14, 15, table3, resilience, all")
	scale := flag.String("scale", "quick", "experiment scale: quick, medium or full")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	chart := flag.Bool("chart", false, "also draw latency-curve figures (8, 12, 13) as ASCII charts")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "simulations to run concurrently (output is identical at any value)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "per-run Chrome trace_event JSON files based on this path (forces -j 1)")
	eventsPath := flag.String("trace-events", "", "per-run JSONL flit-event logs based on this path (forces -j 1)")
	traceBuf := flag.Int("trace-buf", 0, "trace ring-buffer capacity in events (0 = 1Mi)")
	metricsOut := flag.String("metrics-out", "", "per-run metrics CSVs with this path prefix (forces -j 1)")
	metricsWin := flag.Int64("metrics-window", 0, "metrics window length in cycles (0 = 1000)")
	watchdogWin := flag.Int64("watchdog", 0, "dump a network snapshot to stderr after this many cycles without an ejection (works at any -j)")
	jobTimeout := flag.Duration("job-timeout", 0, "wall-time budget per simulation cell; cells past it render as error cells (0 = unbounded)")
	maxFailures := flag.Int("max-failures", 0, "cancel a figure's remaining cells after this many failures (0 = drain everything, report at the end)")
	warmupShare := flag.Bool("warmup-share", false, "amortize warmup across rate sweeps: warm each curve once, checkpoint in memory, fork every rate point from the shared warm state; changes the sampling plan, so numbers differ statistically from the default path; not with -trace, -trace-events, -metrics-out or -watchdog")
	cacheDir := flag.String("cache-dir", "", "persist simulation results in this content-addressed cache directory (the seecd store layout); warm re-runs resolve from it without simulating")
	noReuse := flag.Bool("no-reuse", false, "keep the planner's cost-model scheduling but disable dedup and caching, so every cell simulates (A/B baseline)")
	statusAddr := flag.String("status", "", "serve live sweep telemetry over HTTP on this address (/status, /metrics, /debug/pprof); \":0\" picks a free port, printed on stderr")
	telemetryOut := flag.String("telemetry-out", "", "append sweep telemetry events to this file as JSON lines")
	progress := flag.Duration("progress", 0, "print an ETA-aware progress line to stderr at most this often (0 = off)")
	flag.Parse()

	switch {
	case *jobs < 0:
		usage("-j %d: worker count must be non-negative", *jobs)
	case *jobTimeout < 0:
		usage("-job-timeout %v: must be non-negative", *jobTimeout)
	case *maxFailures < 0:
		usage("-max-failures %d: must be non-negative", *maxFailures)
	case *traceBuf < 0:
		usage("-trace-buf %d: must be non-negative", *traceBuf)
	case *metricsWin < 0:
		usage("-metrics-window %d: must be non-negative", *metricsWin)
	case *watchdogWin < 0:
		usage("-watchdog %d: the stall threshold must be non-negative", *watchdogWin)
	case *progress < 0:
		usage("-progress %v: must be non-negative", *progress)
	case *warmupShare && (*tracePath != "" || *eventsPath != "" || *metricsOut != "" || *watchdogWin > 0):
		// Instrumented runs never fork, so adding an instrument flag to
		// a -warmup-share run would silently change its numbers.
		usage("-warmup-share cannot be combined with -trace, -trace-events, -metrics-out or -watchdog: instrumented runs never fork")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	var sc exp.Scale
	switch *scale {
	case "quick":
		sc = exp.Quick()
	case "medium":
		sc = exp.Medium()
	case "full":
		sc = exp.Full()
	default:
		usage("unknown scale %q", *scale)
	}
	sc.Workers = *jobs
	sc.JobTimeout = *jobTimeout
	sc.MaxFailures = *maxFailures

	// Live sweep telemetry: event bus + aggregator, optionally served
	// over HTTP and/or logged as JSONL. Pure observation — tables are
	// byte-identical with it on or off, so it works at any -j.
	tel, err := seec.TelemetryOptions{StatusAddr: *statusAddr, EventsPath: *telemetryOut}.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: telemetry: %v\n", err)
		os.Exit(1)
	}
	if tel != nil {
		defer tel.Close()
		if addr := tel.Addr(); addr != "" {
			fmt.Fprintf(os.Stderr, "figures: telemetry: serving /status, /metrics and /debug/pprof on http://%s\n", addr)
		}
		sc.SweepEvents = tel.Bus
		sc.RunEvents = tel.Hook()
	}
	if *progress > 0 {
		sc.ProgressEvery = *progress
		if tel != nil {
			sc.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "figures: %s\n", tel.ProgressLine())
			}
		} else {
			sc.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "figures: jobs %d/%d done\n", done, total)
			}
		}
	}

	inst := seec.InstrumentOptions{
		TracePath:       *tracePath,
		EventsPath:      *eventsPath,
		TraceBuf:        *traceBuf,
		MetricsPath:     *metricsOut,
		MetricsWindow:   *metricsWin,
		WatchdogWindow:  *watchdogWin,
		Tool:            "figures",
		Args:            os.Args[1:],
		TelemetryAddr:   tel.Addr(),
		TelemetryEvents: *telemetryOut,
	}
	if inst.Enabled() {
		// File-producing instrumentation gets one numbered output set
		// per simulation; serialize so the numbering is deterministic.
		// The watchdog alone writes no per-run files (snapshots share
		// stderr via single atomic writes), so it runs at any -j.
		if inst.TracePath != "" || inst.EventsPath != "" || inst.MetricsPath != "" {
			sc.Workers = 1
			if *jobs > 1 {
				fmt.Fprintln(os.Stderr, "figures: -trace/-trace-events/-metrics-out force -j 1 for deterministic per-run file numbering")
			}
		}
		var seq atomic.Int64
		sc.Instrument = func(s *seec.Sim) func() {
			o := inst
			label := fmt.Sprintf("%04d_%s_%s_%.3f", seq.Add(1), s.Cfg.Scheme, s.Cfg.Pattern, s.Cfg.InjectionRate)
			o.TracePath = perRunPath(o.TracePath, label)
			o.EventsPath = perRunPath(o.EventsPath, label)
			o.MetricsPath = perRunPath(o.MetricsPath, label)
			o.Note = "figures " + label
			return o.Hook()(s)
		}
	}

	// The sweep planner: constructed after the scale is final so its
	// worker pool and telemetry wiring match the scale's. Instrumented
	// runs must neither reuse nor fork, so an instrumented scale gets a
	// NoReuse planner (-warmup-share is rejected above); the scale then
	// runs on it, and the ledger below counts what really simulated.
	po := plan.Options{
		Workers:       sc.Workers,
		JobTimeout:    sc.JobTimeout,
		MaxFailures:   sc.MaxFailures,
		WarmupShare:   *warmupShare,
		NoReuse:       *noReuse || inst.Enabled(),
		CacheDir:      *cacheDir,
		Bus:           sc.SweepEvents,
		Progress:      sc.Progress,
		ProgressEvery: sc.ProgressEvery,
	}
	if tel != nil {
		po.Agg = tel.Agg
	}
	planner, err := plan.New(po)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: plan: %v\n", err)
		os.Exit(1)
	}
	sc.Planner = planner

	gens := map[string]func() []*exp.Table{
		"7":          func() []*exp.Table { return []*exp.Table{exp.Fig7()} },
		"8":          func() []*exp.Table { return exp.Fig8(sc) },
		"9":          func() []*exp.Table { return []*exp.Table{exp.Fig9(sc)} },
		"10a":        func() []*exp.Table { return []*exp.Table{exp.Fig10a(sc)} },
		"10b":        func() []*exp.Table { return []*exp.Table{exp.Fig10b(sc)} },
		"11":         func() []*exp.Table { return []*exp.Table{exp.Fig11(sc)} },
		"12":         func() []*exp.Table { return exp.Fig12(sc) },
		"13":         func() []*exp.Table { return exp.Fig13(sc) },
		"14":         func() []*exp.Table { return []*exp.Table{exp.Fig14(sc)} },
		"15":         func() []*exp.Table { return []*exp.Table{exp.Fig15(sc)} },
		"table1":     func() []*exp.Table { return []*exp.Table{exp.Table1(sc)} },
		"table3":     func() []*exp.Table { return []*exp.Table{exp.Table3(sc)} },
		"resilience": func() []*exp.Table { return []*exp.Table{exp.Resilience(sc)} },
	}
	order := []string{"table1", "7", "8", "9", "10a", "10b", "11", "12", "13", "14", "15", "table3", "resilience"}

	var picked []string
	if *fig == "all" {
		picked = order
	} else if _, ok := gens[*fig]; ok {
		picked = []string{*fig}
	} else {
		usage("unknown figure %q (valid: %v, all)", *fig, order)
	}

	for _, id := range picked {
		start := time.Now()
		tables := gens[id]()
		for _, t := range tables {
			if *csv {
				t.CSV(os.Stdout)
			} else {
				t.Render(os.Stdout)
				if *chart && (t.ID == "fig8" || t.ID == "fig12" || t.ID == "fig13") {
					t.Chart(os.Stdout, 16)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "[fig %s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}

	st := planner.Stats()
	fmt.Fprintf(os.Stderr,
		"figures: plan: jobs=%d reused=%d simulated=%d families=%d warmup-saved=%d fallbacks=%d quarantined=%d\n",
		st.Jobs, st.Reused(), st.Simulated, st.WarmupFamilies,
		st.WarmupCyclesSaved, st.WarmupFallbacks, st.Quarantined)
	if err := planner.WriteManifest("figures", os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "figures: plan manifest: %v\n", err)
	}
}

// usage reports a command-line validation failure and exits with the
// conventional usage status.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "figures: "+format+"\n", args...)
	os.Exit(2)
}

// perRunPath derives the per-simulation output path from the base flag
// value by inserting the run label before the extension:
// traces/t.json + "0007_seec_transpose_0.140" ->
// traces/t_0007_seec_transpose_0.140.json. Empty base stays empty
// (that output is disabled).
func perRunPath(base, label string) string {
	if base == "" {
		return ""
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "_" + label + ext
}
