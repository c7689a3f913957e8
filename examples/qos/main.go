// QoS demo (the §4.3 future-work direction): SEEC's express bandwidth
// can be pointed at the packets hurting tail latency most. The
// OldestFirst option makes each seeker complete its circulation and
// upgrade the most senior candidate instead of the first one it meets.
package main

import (
	"context"
	"fmt"
	"log"

	"seec"
)

func run(oldest bool) seec.Result {
	cfg := seec.DefaultConfig()
	cfg.Scheme = seec.SchemeSEEC
	cfg.OldestFirst = oldest
	cfg.Pattern = "uniform_random"
	cfg.InjectionRate = 0.12 // around the saturation knee
	cfg.SimCycles = 15000
	res, err := seec.RunSyntheticCtx(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	first := run(false)
	oldest := run(true)
	fmt.Println("SEEC seeker selection policy, 8x8 uniform random @ 0.12 (knee):")
	fmt.Printf("  %-22s avg=%6.1f  p99=%6d  max=%6d  %%FF=%.1f\n",
		"first-match (paper):", first.AvgLatency, first.P99Latency, first.MaxLatency, 100*first.FFFraction)
	fmt.Printf("  %-22s avg=%6.1f  p99=%6d  max=%6d  %%FF=%.1f\n",
		"oldest-first (QoS):", oldest.AvgLatency, oldest.P99Latency, oldest.MaxLatency, 100*oldest.FFFraction)
	fmt.Println("\noldest-first trades a full seeker circulation per upgrade for")
	fmt.Println("sending the express path to the most-delayed packet — the QoS")
	fmt.Println("direction the paper's §4.3 observations point at.")
}
