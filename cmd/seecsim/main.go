// Command seecsim runs one NoC simulation and prints its statistics.
// Flag names deliberately mirror the gem5/Garnet command lines in the
// paper's artifact-evaluation appendix.
//
// Examples:
//
//	seecsim -topology 8x8 -scheme seec -synthetic uniform_random -injectionrate 0.10
//	seecsim -topology 8x8 -scheme mseec -vcs-per-vnet 2 -synthetic transpose -injectionrate 0.14
//	seecsim -scheme seec -app canneal -txns 8000
//	seecsim -scheme none -routing-algorithm adaptive -synthetic uniform_random -injectionrate 0.4 -deadlock-check
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"seec"
	"seec/internal/fault"
)

func main() {
	var (
		topology  = flag.String("topology", "8x8", "mesh as RxC, e.g. 8x8 or 4x4")
		scheme    = flag.String("scheme", "seec", "one of: none xy west-first tfc escape chipper minbd spin swap drain seec mseec")
		routing   = flag.String("routing-algorithm", "", "override routing: xy yx west-first oblivious adaptive (default: scheme's paper default)")
		vcs       = flag.Int("vcs-per-vnet", 4, "VCs per virtual network per input port")
		synth     = flag.String("synthetic", "uniform_random", "traffic pattern (synthetic mode)")
		rate      = flag.Float64("injectionrate", 0.05, "packets/node/cycle (synthetic mode)")
		cycles    = flag.Int64("sim-cycles", 20000, "measured cycles after warmup")
		warmup    = flag.Int64("warmup", 1000, "warmup cycles excluded from statistics")
		seed      = flag.Uint64("seed", 1, "PRNG seed")
		app       = flag.String("app", "", "run application traffic instead of synthetic (e.g. canneal)")
		txns      = flag.Int64("txns", 8000, "transactions to complete (application mode)")
		dlCheck   = flag.Bool("deadlock-check", false, "report whether the run wedged (no progress for 5000 cycles) and, if so, print the stall diagnosis")
		satSearch = flag.Bool("saturation", false, "search for the saturation throughput instead of a single run")
		faults    = flag.String("faults", "", `fault-injection spec, e.g. "link:0.001,router:2@5000,corrupt:1e-5" (synthetic credit-flow schemes only)`)

		ckptOut   = flag.String("checkpoint-out", "", "save the full simulation state to this file periodically and at run end (synthetic credit-flow runs only)")
		ckptEvery = flag.Int64("checkpoint-every", 0, "cycles between periodic checkpoint saves (0 = 5000)")
		resume    = flag.String("resume", "", "restore the run from this checkpoint file before stepping; a missing file starts fresh, so -resume with -checkpoint-out on the same path makes reruns pick up where they left off")
		stopCI    = flag.Float64("stop-ci", 0, "stop the measurement as soon as the latency 95% CI's relative half-width reaches this target, e.g. 0.02 for ±2% (0 = run the full -sim-cycles)")

		tracePath   = flag.String("trace", "", "write a Chrome trace_event JSON to this file (open in chrome://tracing or Perfetto)")
		eventsPath  = flag.String("trace-events", "", "write a JSONL flit-event log to this file")
		traceBuf    = flag.Int("trace-buf", 0, "trace ring-buffer capacity in events (0 = 1Mi; oldest events are overwritten)")
		metricsOut  = flag.String("metrics-out", "", "write per-router and per-link metrics CSVs with this path prefix")
		metricsWin  = flag.Int64("metrics-window", 0, "metrics window length in cycles (0 = 1000)")
		watchdogWin = flag.Int64("watchdog", 0, "dump a network snapshot to stderr after this many cycles without an ejection (0 = off)")

		statusAddr   = flag.String("status", "", "serve live run telemetry over HTTP on this address (/status, /metrics, /debug/pprof); \":0\" picks a free port, printed on stderr")
		telemetryOut = flag.String("telemetry-out", "", "append run telemetry events to this file as JSON lines")
		hbEvery      = flag.Int64("heartbeat-every", 0, "cycles between telemetry heartbeats (0 = 2048)")
	)
	flag.Parse()

	rows, cols, err := parseTopology(*topology)
	if err != nil {
		usage("bad -topology %q: %v", *topology, err)
	}

	// Validate the flag combination up front: a bad command line is a
	// usage error (exit 2) before any simulation state is built, so AE
	// scripts fail loudly instead of half-running.
	switch {
	case rows < 2 || cols < 2:
		usage("-topology %q: both dimensions must be at least 2", *topology)
	case *vcs < 1:
		usage("-vcs-per-vnet %d: need at least one VC per VNet", *vcs)
	case *rate < 0 || *rate > 1:
		usage("-injectionrate %g: must be in [0, 1] packets/node/cycle", *rate)
	case *cycles < 0:
		usage("-sim-cycles %d: must be non-negative", *cycles)
	case *warmup < 0:
		usage("-warmup %d: must be non-negative", *warmup)
	case *txns < 1 && *app != "":
		usage("-txns %d: application mode needs a positive transaction target", *txns)
	case *traceBuf < 0:
		usage("-trace-buf %d: must be non-negative", *traceBuf)
	case *metricsWin < 0:
		usage("-metrics-window %d: must be non-negative", *metricsWin)
	case *watchdogWin < 0:
		usage("-watchdog %d: the stall threshold must be non-negative", *watchdogWin)
	case *ckptEvery < 0:
		usage("-checkpoint-every %d: must be non-negative", *ckptEvery)
	case *stopCI < 0:
		usage("-stop-ci %g: must be non-negative", *stopCI)
	case *ckptEvery > 0 && *ckptOut == "":
		usage("-checkpoint-every needs -checkpoint-out")
	case *hbEvery < 0:
		usage("-heartbeat-every %d: must be non-negative", *hbEvery)
	case *hbEvery > 0 && *statusAddr == "" && *telemetryOut == "":
		usage("-heartbeat-every needs -status or -telemetry-out")
	}
	if *ckptOut != "" || *resume != "" || *stopCI > 0 {
		if *app != "" || *satSearch {
			usage("-checkpoint-out/-resume/-stop-ci apply to single synthetic runs only")
		}
		switch seec.Scheme(*scheme) {
		case seec.SchemeCHIPPER, seec.SchemeMinBD:
			usage("checkpoint and CI flags are not supported on deflection scheme %s", *scheme)
		}
	}
	if *faults != "" {
		if _, err := fault.ParseSpec(*faults); err != nil {
			usage("bad -faults spec: %v", err)
		}
		switch seec.Scheme(*scheme) {
		case seec.SchemeCHIPPER, seec.SchemeMinBD:
			usage("-faults is not supported on deflection scheme %s (no credit-flow NICs to retransmit from)", *scheme)
		}
		if *app != "" {
			usage("-faults applies to synthetic traffic only, not -app runs")
		}
	}

	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = rows, cols
	cfg.Scheme = seec.Scheme(*scheme)
	cfg.Routing = seec.Routing(*routing)
	cfg.VCsPerVNet = *vcs
	cfg.Pattern = *synth
	cfg.InjectionRate = *rate
	cfg.SimCycles = *cycles
	cfg.Warmup = *warmup
	cfg.Seed = *seed
	cfg.Faults = *faults
	cfg.StopCI = *stopCI
	cfg.CheckpointPath = *ckptOut
	cfg.CheckpointEvery = *ckptEvery
	cfg.ResumePath = *resume

	// Live telemetry: works for single runs and -saturation searches
	// alike (each probe run gets its own heartbeat stream id).
	tel, err := seec.TelemetryOptions{
		StatusAddr: *statusAddr, EventsPath: *telemetryOut, HeartbeatEvery: *hbEvery,
	}.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "seecsim: telemetry: %v\n", err)
		os.Exit(1)
	}
	if tel != nil {
		defer tel.Close()
		if addr := tel.Addr(); addr != "" {
			fmt.Fprintf(os.Stderr, "seecsim: telemetry: serving /status, /metrics and /debug/pprof on http://%s\n", addr)
		}
		tel.Attach(&cfg)
	}

	inst := seec.InstrumentOptions{
		TracePath:       *tracePath,
		EventsPath:      *eventsPath,
		TraceBuf:        *traceBuf,
		MetricsPath:     *metricsOut,
		MetricsWindow:   *metricsWin,
		WatchdogWindow:  *watchdogWin,
		Tool:            "seecsim",
		Args:            os.Args[1:],
		TelemetryAddr:   tel.Addr(),
		TelemetryEvents: *telemetryOut,
	}
	if *satSearch && inst.Enabled() {
		fmt.Fprintln(os.Stderr, "seecsim: trace/metrics/watchdog flags apply to single runs, not -saturation searches")
		os.Exit(2)
	}
	// The deadlock diagnosis needs the wedged network's state, which
	// Result does not carry; capture the Sim on its way through the
	// standard runner (observation only — the run itself is untouched).
	// Saturation searches fan runs out concurrently, so the capture is
	// only installed for single runs.
	var sim *seec.Sim
	if !*satSearch {
		hook := inst.Hook()
		cfg.Instrument = func(s *seec.Sim) func() {
			sim = s
			if hook != nil {
				return hook(s)
			}
			return nil
		}
	}

	switch {
	case *app != "":
		res, err := seec.RunApplicationCtx(context.Background(), cfg, *app, *txns, 50_000_000)
		fail(err)
		fmt.Printf("app=%s scheme=%s runtime=%d cycles\n", res.App, res.Scheme, res.Runtime)
		fmt.Printf("average_packet_latency=%.3f\n", res.AvgLatency)
		fmt.Printf("p99_packet_latency=%d\nmax_packet_latency=%d\n", res.P99Latency, res.MaxLatency)
		fmt.Printf("transactions_completed=%d stalled=%v\n", res.Completed, res.Stalled)
		if *dlCheck && res.Stalled {
			fmt.Print(sim.StallReport())
			os.Exit(1)
		}
	case *satSearch:
		sat, last, err := seec.SaturationThroughputWith(context.Background(), cfg, 0, seec.RunSyntheticCtx)
		fail(err)
		fmt.Printf("saturation_throughput=%.4f packets/node/cycle (avg latency %.1f at that rate)\n", sat, last.AvgLatency)
	default:
		res, err := seec.RunSyntheticCtx(context.Background(), cfg)
		fail(err)
		fmt.Printf("scheme=%s pattern=%s rate=%.3f mesh=%dx%d vcs=%d\n",
			cfg.Scheme, cfg.Pattern, cfg.InjectionRate, rows, cols, *vcs)
		fmt.Printf("average_packet_latency=%.3f\n", res.AvgLatency)
		fmt.Printf("p50=%d p99=%d max=%d\n", res.P50Latency, res.P99Latency, res.MaxLatency)
		fmt.Printf("throughput_flits=%.4f throughput_packets=%.4f received=%d\n",
			res.ThroughputFlits, res.ThroughputPackets, res.ReceivedPackets)
		fmt.Printf("ff_fraction=%.4f misroute_hops=%d\n", res.FFFraction, res.MisrouteHops)
		fmt.Printf("link_energy_avg=%.3f link_energy_peak=%.3f\n", res.AvgLinkEnergy, res.PeakLinkEnergy)
		if *stopCI > 0 {
			fmt.Printf("ci_mean=%.3f ci_half_width=%.3f ci_batches=%d stop_cycle=%d\n",
				res.CIMean, res.CIHalfWidth, res.CIBatches, res.StopCycle)
		}
		if *faults != "" {
			fmt.Printf("faults=%q retransmits=%d fault_discards=%d dead_links=%d\n",
				*faults, res.Retransmits, res.FaultDiscards, res.DeadLinks)
		}
		if *dlCheck {
			fmt.Printf("stalled=%v\n", res.Stalled)
			if res.Stalled {
				fmt.Print(sim.StallReport())
				os.Exit(1)
			}
		}
	}
}

// parseTopology parses a mesh shape written RxC: two unsigned decimal
// numbers joined by one 'x' or 'X', and nothing else.
func parseTopology(s string) (rows, cols int, err error) {
	r, c, ok := strings.Cut(strings.ToLower(s), "x")
	if !ok {
		return 0, 0, fmt.Errorf("want RxC, e.g. 8x8")
	}
	rv, err := strconv.ParseUint(r, 10, 16)
	if err != nil {
		return 0, 0, err
	}
	cv, err := strconv.ParseUint(c, 10, 16)
	if err != nil {
		return 0, 0, err
	}
	return int(rv), int(cv), nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// usage reports a command-line validation failure and exits with the
// conventional usage status.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "seecsim: "+format+"\n", args...)
	os.Exit(2)
}
