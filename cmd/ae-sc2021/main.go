// Command ae-sc2021 mirrors the artifact-evaluation workflow from the
// paper's appendix: it regenerates the Figure 8 data ("evaluators will
// observe average_packet_latency ... for both 8x8 Mesh and 16x16 Mesh
// for Bit Rotation, Shuffle and Transpose traffic patterns") for the
// SEEC repository's schemes, printing one average_packet_latency line
// per run exactly as the gem5 flow would.
//
// The runs are independent simulations, so they fan out across -j
// workers; each run derives its RNG seed from its own (scheme,
// pattern, rate, mesh) coordinates, and the lines print in sweep
// order, so the output is byte-identical at any -j.
//
// Usage:
//
//	ae-sc2021              # 8x8 only (minutes)
//	ae-sc2021 -mesh both   # 8x8 and 16x16 (slow, as was the original)
//	ae-sc2021 -j 16        # 16 concurrent simulations
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"seec"
	"seec/internal/plan"
)

func main() {
	mesh := flag.String("mesh", "8x8", `"8x8" or "both" (adds 16x16)`)
	cycles := flag.Int64("sim-cycles", 10000, "measured cycles per point")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "simulations to run concurrently (output is identical at any value)")
	cacheDir := flag.String("cache-dir", "", "persist simulation results in this content-addressed cache directory; warm re-runs resolve from it without simulating")
	noReuse := flag.Bool("no-reuse", false, "keep the planner's scheduling but disable dedup and caching (A/B baseline)")
	warmupShare := flag.Bool("warmup-share", false, "fork each (mesh, pattern, scheme) curve's rate points from one shared warm checkpoint; changes the sampling plan, so numbers differ statistically from the default path")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	sizes := []int{8}
	switch *mesh {
	case "8x8":
	case "both":
		sizes = append(sizes, 16)
	default:
		usage("-mesh %q: want 8x8 or both", *mesh)
	}
	switch {
	case *jobs < 0:
		usage("-j %d: worker count must be non-negative", *jobs)
	case *cycles < 0:
		usage("-sim-cycles %d: must be non-negative", *cycles)
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

	schemes := []seec.Scheme{seec.SchemeWestFirst, seec.SchemeEscape,
		seec.SchemeSPIN, seec.SchemeSWAP, seec.SchemeDRAIN,
		seec.SchemeSEEC, seec.SchemeMSEEC}
	patterns := []string{"bit_rotation", "shuffle", "transpose"}
	rates := []float64{0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.20}

	// Seeds stay underived here: the planner derives each point's seed
	// from its own coordinates (Config.SweepSeed) at execution time.
	// Schemes here are all scheme-default routing on the standard
	// config, so the curve grouping -warmup-share needs (identical but
	// for rate) falls out of the sweep-order config list directly.
	var jobList []plan.Job
	for _, k := range sizes {
		for _, pat := range patterns {
			for _, scheme := range schemes {
				for _, rate := range rates {
					cfg := seec.DefaultConfig()
					cfg.Rows, cfg.Cols = k, k
					cfg.Scheme = scheme
					cfg.Pattern = pat
					cfg.InjectionRate = rate
					cfg.SimCycles = *cycles
					jobList = append(jobList, plan.Job{Cfg: cfg, DeriveSeed: true})
				}
			}
		}
	}
	p, err := plan.New(plan.Options{
		Workers:     *jobs,
		WarmupShare: *warmupShare,
		NoReuse:     *noReuse,
		CacheDir:    *cacheDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ae-sc2021: plan: %v\n", err)
		os.Exit(1)
	}
	for i, o := range p.Run(context.Background(), jobList, seec.RunSyntheticCtx) {
		cfg := jobList[i].Cfg
		switch {
		case !o.Done:
			fmt.Println("# cancelled")
		case o.Err != nil:
			fmt.Printf("# %v\n", o.Err)
		default:
			fmt.Printf("mesh=%dx%d synthetic=%s scheme=%s injectionrate=%.2f average_packet_latency=%.3f reception_rate=%.4f\n",
				cfg.Rows, cfg.Cols, cfg.Pattern, cfg.Scheme, cfg.InjectionRate,
				o.Result.AvgLatency, o.Result.ThroughputPackets)
		}
	}
	st := p.Stats()
	fmt.Fprintf(os.Stderr,
		"ae-sc2021: plan: jobs=%d reused=%d simulated=%d families=%d warmup-saved=%d fallbacks=%d\n",
		st.Jobs, st.Reused(), st.Simulated, st.WarmupFamilies,
		st.WarmupCyclesSaved, st.WarmupFallbacks)
	if err := p.WriteManifest("ae-sc2021", os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "ae-sc2021: plan manifest: %v\n", err)
	}
}

// usage reports a command-line validation failure and exits with the
// conventional usage status.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ae-sc2021: "+format+"\n", args...)
	os.Exit(2)
}
