package seec_test

import (
	"context"
	"fmt"

	"seec"
)

// ExampleRunSyntheticCtx demonstrates the one-call entry point.
func ExampleRunSyntheticCtx() {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = seec.SchemeSEEC
	cfg.Pattern = "transpose"
	cfg.InjectionRate = 0.05
	cfg.SimCycles = 5000
	res, err := seec.RunSyntheticCtx(context.Background(), cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.Stalled, res.ReceivedPackets > 100)
	// Output: false true
}

// ExampleNewSim shows per-cycle stepping for custom instrumentation.
func ExampleNewSim() {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = seec.SchemeMSEEC
	cfg.InjectionRate = 0.10
	sim, err := seec.NewSim(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for sim.Cycle() < 3000 {
		sim.Step()
	}
	fmt.Println(sim.Cycle() == 3000, sim.Collector().ReceivedPackets > 0)
	// Output: true true
}

// ExampleSaturationThroughputWith shows the Fig. 9 measurement
// primitive, each probe run directly by seec.RunSyntheticCtx.
func ExampleSaturationThroughputWith() {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Scheme = seec.SchemeXY
	cfg.Pattern = "uniform_random"
	cfg.SimCycles = 3000
	sat, _, err := seec.SaturationThroughputWith(context.Background(), cfg, 0, seec.RunSyntheticCtx)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(sat > 0.02, sat < 0.9)
	// Output: true true
}

// ExampleAreaReport prints the Fig. 7 headline.
func ExampleAreaReport() {
	var escape, seecA float64
	for _, b := range seec.AreaReport() {
		switch b.Config.Scheme {
		case "escape":
			escape = b.Total()
		case "seec":
			seecA = b.Total()
		}
	}
	fmt.Printf("SEEC needs ~%.0f%% of the escape-VC router area\n", 100*seecA/escape)
	// Output: SEEC needs ~28% of the escape-VC router area
}
