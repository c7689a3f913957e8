// Quickstart: run SEEC on an 8x8 mesh under uniform-random traffic and
// print latency/throughput — the minimal end-to-end use of the API.
package main

import (
	"context"
	"fmt"
	"log"

	"seec"
)

func main() {
	cfg := seec.DefaultConfig() // Table 4 defaults: 8x8 mesh, VCT, 1-cycle routers
	cfg.Scheme = seec.SchemeSEEC
	cfg.Pattern = "uniform_random"
	cfg.InjectionRate = 0.10
	cfg.SimCycles = 20000

	res, err := seec.RunSyntheticCtx(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SEEC on %dx%d mesh, %s @ %.2f packets/node/cycle\n",
		cfg.Rows, cfg.Cols, cfg.Pattern, cfg.InjectionRate)
	fmt.Printf("  avg packet latency : %.1f cycles (p99 %d, max %d)\n",
		res.AvgLatency, res.P99Latency, res.MaxLatency)
	fmt.Printf("  throughput         : %.3f flits/node/cycle\n", res.ThroughputFlits)
	fmt.Printf("  packets via FF     : %.1f%%\n", 100*res.FFFraction)
	fmt.Printf("  link energy        : %.2f avg / %.2f peak (flit-traversal units)\n",
		res.AvgLinkEnergy, res.PeakLinkEnergy)
}
