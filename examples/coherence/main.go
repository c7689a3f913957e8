// Coherence demo: run an application workload (MOESI-style 6-class
// protocol traffic) on the paper's two extremes — a conventional
// 6-virtual-network configuration, and SEEC with ONE virtual network
// at 1/6th the buffers, which must still complete because seekers
// break every protocol deadlock (Lemmas 1-3).
package main

import (
	"context"
	"fmt"
	"log"

	"seec"
)

func main() {
	const app = "canneal" // the most network-hungry profile
	const txns = 8000

	type variant struct {
		label string
		cfg   seec.Config
	}
	base := seec.DefaultConfig()
	base.Rows, base.Cols = 4, 4

	sixVN := base
	sixVN.Scheme = seec.SchemeXY
	sixVN.VCsPerVNet = 2 // 6 VNets x 2 VCs = 12 VCs/port

	oneVN := base
	oneVN.Scheme = seec.SchemeSEEC
	oneVN.Routing = seec.RoutingAdaptive
	oneVN.VNets = 1
	oneVN.VCsPerVNet = 2 // 1 VNet x 2 VCs: 1/6th the buffers

	for _, v := range []variant{
		{"XY, 6 VNets x 2 VC (conventional)", sixVN},
		{"SEEC, 1 VNet x 2 VC (1/6th buffers)", oneVN},
	} {
		res, err := seec.RunApplicationCtx(context.Background(), v.cfg, app, txns, 20_000_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-38s runtime=%7d cycles  avg lat=%6.1f  max lat=%6d  done=%v\n",
			v.label, res.Runtime, res.AvgLatency, res.MaxLatency, res.Completed >= txns)
	}
	fmt.Println("\nSEEC completes the full protocol with one virtual network — the")
	fmt.Println("paper's headline: routing AND protocol deadlock freedom from a")
	fmt.Println("single VC, with no turn restrictions and no VNets.")
}
