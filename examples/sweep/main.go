// Sweep: produce a latency-vs-injection-rate comparison (a slice of
// Fig. 8) across schemes on one traffic pattern, as a text table.
package main

import (
	"context"
	"fmt"
	"log"

	"seec"
)

func main() {
	schemes := []seec.Scheme{seec.SchemeXY, seec.SchemeWestFirst,
		seec.SchemeEscape, seec.SchemeSWAP, seec.SchemeDRAIN,
		seec.SchemeSEEC, seec.SchemeMSEEC}
	rates := []float64{0.02, 0.05, 0.08, 0.11, 0.14}

	fmt.Println("avg packet latency (cycles) — 8x8 mesh, transpose, 4 VCs")
	fmt.Printf("%-6s", "rate")
	for _, s := range schemes {
		fmt.Printf(" %11s", s)
	}
	fmt.Println()
	for _, rate := range rates {
		fmt.Printf("%-6.2f", rate)
		for _, scheme := range schemes {
			cfg := seec.DefaultConfig()
			cfg.Scheme = scheme
			cfg.Pattern = "transpose"
			cfg.InjectionRate = rate
			cfg.SimCycles = 10000
			res, err := seec.RunSyntheticCtx(context.Background(), cfg)
			if err != nil {
				log.Fatal(err)
			}
			if res.AvgLatency > 1500 {
				fmt.Printf(" %11s", "sat")
			} else {
				fmt.Printf(" %11.1f", res.AvgLatency)
			}
		}
		fmt.Println()
	}
	fmt.Println("\nturn models (xy, west-first) saturate first; adaptive schemes ride")
	fmt.Println("further; SEEC/mSEEC add guaranteed express paths on top.")
}
