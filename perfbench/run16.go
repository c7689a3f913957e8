package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"

	"seec"
	"seec/internal/serve"
)

// run-16x16 is one long simulation on the paper's largest mesh. Nearly
// all of its time is Network.Step and the SEEC seeker walk; no runner,
// planner or store code runs. At 0.05 packets/node/cycle the mesh stays
// below saturation (about 400 packets in flight), so every 1024-cycle
// operation does the same amount of work; past saturation the
// in-flight count, and with it the operation time, grows without end.
const (
	run16Rate   = 0.05
	run16Warmup = 2048 // set-up cycles, also the statistics warmup
	run16Cycles = 1024 // cycles per operation
	run16Setups = 5
	// digestOps is how many operations the result digest covers: the
	// snapshot after each of them is deterministic for a seed, while
	// the number of operations a run fits into its seconds is not.
	digestOps = 8
	// run16MaxInFlight flags a network drifting into saturation.
	run16MaxInFlight = 4000
)

// run16Config builds the workload's configuration from the seed.
func run16Config(seed uint64) seec.Config {
	r := splitmix{seed}
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 16, 16
	cfg.Scheme = seec.SchemeSEEC
	cfg.Pattern = "uniform_random"
	cfg.InjectionRate = run16Rate
	cfg.Warmup = run16Warmup
	cfg.Seed = r.next()
	return cfg
}

func runRun16(opt options, out *outcome) error {
	cfg := run16Config(opt.seed)
	sim, err := setUp(opt, out, run16Setups, func() (*seec.Sim, error) {
		sp := out.spans.open("setup", -1, -1)
		defer out.spans.end(sp)
		t0 := time.Now()
		b := out.spans.open("seec.build", sp, -1)
		s, err := seec.NewSim(cfg)
		out.spans.end(b)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		w := out.spans.open("seec.warmup", sp, -1)
		s.Run(run16Warmup)
		out.spans.end(w)
		out.part("seec.build_ms", float64(t1.Sub(t0).Nanoseconds())/1e6)
		out.part("seec.warmup_ms", float64(time.Since(t1).Nanoseconds())/1e6)
		return s, nil
	})
	if err != nil {
		return err
	}
	defer sim.Close()
	if opt.child {
		return nil
	}

	var hooks, gen atomic.Int64
	plainScheme, plainTraffic := sim.Net.Scheme, sim.Net.Traffic
	timedSch, timedTr := wrapScheme(plainScheme, &hooks), wrapTraffic(plainTraffic, &gen)
	digest := sha256.New()
	var (
		tracedNs, hooksNs, genNs, tracedCycles int64
		inFlight, flits, ffUp                  int64
	)
	measure(opt, out, digestOps, func(i int, traced bool) (opTime, error) {
		if traced {
			sim.Net.Scheme, sim.Net.Traffic = timedSch, timedTr
		} else {
			sim.Net.Scheme, sim.Net.Traffic = plainScheme, plainTraffic
		}
		c := sim.Collector()
		recv0, flits0, ff0 := c.ReceivedPackets, c.ReceivedFlits, sim.FFUpgrades()
		h0, g0 := hooks.Load(), gen.Load()
		root, sp := -1, -1
		if traced {
			root = out.spans.open("op", -1, i)
			sp = out.spans.open("noc.run", root, i)
		}
		sw := startWatch()
		sim.Run(run16Cycles)
		t := sw.stop()
		d := t.wall
		if traced {
			out.spans.end(sp)
			out.spans.end(root)
			dh, dg := hooks.Load()-h0, gen.Load()-g0
			out.spans.aggregate(sp, "express.hooks", dh)
			out.spans.aggregate(sp, "traffic.gen", dg)
			tracedNs += d.Nanoseconds()
			hooksNs += dh
			genNs += dg
			tracedCycles += run16Cycles
		}
		inFlight += int64(sim.InFlightPackets())
		flits += c.ReceivedFlits - flits0
		ffUp += sim.FFUpgrades() - ff0

		if want := int64(run16Warmup + (i+1)*run16Cycles); sim.Cycle() != want {
			return t, fmt.Errorf("simulated to cycle %d, want %d", sim.Cycle(), want)
		}
		if sim.Stalled(run16Cycles) {
			return t, fmt.Errorf("network stalled")
		}
		offered := run16Rate * float64(sim.Nodes()*run16Cycles)
		if got := float64(c.ReceivedPackets - recv0); got < offered/2 {
			return t, fmt.Errorf("delivered %.0f packets of %.0f offered", got, offered)
		}
		if n := sim.InFlightPackets(); n > run16MaxInFlight {
			return t, fmt.Errorf("%d packets in flight: saturating", n)
		}
		if i < digestOps {
			digest.Write(serve.EncodeResult(sim.Snapshot()))
		}
		return t, nil
	})
	sim.Net.Scheme, sim.Net.Traffic = plainScheme, plainTraffic
	checkGolden(opt, out, hex.EncodeToString(digest.Sum(nil)))

	n := float64(out.attempted)
	out.layers["noc.flits_per_cycle"] = float64(flits) / (n * run16Cycles)
	out.layers["noc.in_flight"] = float64(inFlight) / n
	out.layers["express.ff_upgrades"] = float64(ffUp) / n
	if tracedCycles > 0 {
		cyc := float64(tracedCycles)
		out.layers["noc.step_us"] = float64(tracedNs) / cyc / 1e3
		out.layers["express.hooks_us"] = float64(hooksNs) / cyc / 1e3
		out.layers["traffic.gen_us"] = float64(genNs) / cyc / 1e3
		out.layers["noc.self_us"] = float64(tracedNs-hooksNs-genNs) / cyc / 1e3
	}
	return nil
}
