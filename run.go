package seec

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"

	"seec/internal/area"
	"seec/internal/rng"
	"seec/internal/runner"
	"seec/internal/stats"
)

// Result summarizes one synthetic-traffic run.
type Result struct {
	Config Config

	AvgLatency float64 // end-to-end packet latency, cycles
	P50Latency int64
	P99Latency int64
	MaxLatency int64

	ThroughputFlits   float64 // received flits / node / cycle
	ThroughputPackets float64 // received packets / node / cycle

	ReceivedPackets int64
	InjectedPackets int64

	FFFraction    float64 // fraction of received packets that used Free-Flow
	FFBufferedAvg float64 // Fig. 10b: mean cycles before upgrade (FF packets)
	FFFreeAvg     float64 // Fig. 10b: mean cycles in bufferless traversal
	RegLatencyAvg float64 // Fig. 10b: mean latency of regular packets

	MisrouteHops int64

	AvgLinkEnergy  float64 // flit-traversal units per cycle
	PeakLinkEnergy float64

	Stalled bool // liveness failure observed (deadlock/livelock symptom)

	// Fault-layer outcomes, all zero when Config.Faults is empty.
	Retransmits   int64 // packets re-enqueued by timeout or NACK
	FaultDiscards int64 // packets discarded at the destination NIC
	DeadLinks     int   // links permanently killed during the run

	// Confidence-interval outcomes, all zero when Config.StopCI is 0.
	// StopCycle is the cycle the run actually ended at — earlier than
	// Warmup+SimCycles when the precision target was met early.
	CIMean      float64 `json:",omitempty"`
	CIHalfWidth float64 `json:",omitempty"`
	CIBatches   int     `json:",omitempty"`
	StopCycle   int64   `json:",omitempty"`
}

// header returns the aligned text header matching Result.Row.
func resultHeader() string {
	return fmt.Sprintf("%-11s %8s %8s %8s %9s %9s %7s %7s", "scheme", "rate", "avgLat", "p99", "thrFlit", "recv", "%FF", "stall")
}

// Row renders the result as one aligned text row.
func (r Result) Row() string {
	stall := ""
	if r.Stalled {
		stall = "STALL"
	}
	return fmt.Sprintf("%-11s %8.3f %8.1f %8d %9.4f %9d %6.1f%% %7s",
		r.Config.Scheme, r.Config.InjectionRate, r.AvgLatency, r.P99Latency,
		r.ThroughputFlits, r.ReceivedPackets, 100*r.FFFraction, stall)
}

// RunSyntheticCtx executes one synthetic-traffic simulation: warmup +
// SimCycles measured cycles. The simulation checks ctx every 1024
// cycles and aborts with ctx's error, so per-job deadlines from the
// sweep harness actually interrupt a stuck run.
//
// It is also where the checkpoint machinery hooks in. With
// Config.ResumePath set, the run restores from that checkpoint instead
// of starting fresh (missing file = fresh start); with
// Config.CheckpointPath set, it saves its state periodically and at
// run end. Because the run loop's chunking is unobservable (Run's
// fast-forward is exact) and checkpoints capture the complete state
// between Steps, a killed run resumed from its last checkpoint
// produces output byte-identical to the uninterrupted run. With
// Config.StopCI set, the run additionally stops as soon as the latency
// CI reaches the requested relative precision.
func RunSyntheticCtx(ctx context.Context, cfg Config) (Result, error) {
	var s *Sim
	var err error
	resumed := false
	if cfg.ResumePath != "" {
		s, err = NewSimFromCheckpointFile(cfg, cfg.ResumePath)
		resumed = err == nil
		if err != nil && os.IsNotExist(err) {
			s, err = NewSim(cfg)
		}
	} else {
		s, err = NewSim(cfg)
	}
	if err != nil {
		return Result{}, err
	}
	var done func()
	if cfg.Instrument != nil {
		done = cfg.Instrument(s)
	}
	// Telemetry hooks come after Instrument so the watchdog the
	// instrument layer installs (if any) can report stall verdicts.
	var hb func(RunEvent)
	if cfg.Telemetry != nil {
		hb = cfg.Telemetry(s)
	}
	if hb != nil {
		if resumed {
			hb(RunEvent{Kind: RunCheckpointRestore, Cycle: s.Cycle(), Total: cfg.Warmup + cfg.SimCycles})
		}
		reportStalls(s, hb)
	}
	res, err := runSyntheticLoop(ctx, s, cfg, hb)
	if err != nil {
		return Result{}, err
	}
	if done != nil {
		done()
	}
	return res, nil
}

// reportStalls routes the verdicts of s's stall watchdog, when the
// instrument layer installed one, to the run-event callback hb.
func reportStalls(s *Sim, hb func(RunEvent)) {
	if s.Net == nil || s.Net.Watchdog == nil {
		return
	}
	s.Net.Watchdog.OnFire = func(cycle, sinceEject int64) {
		hb(RunEvent{Kind: RunWatchdogStall, Cycle: cycle,
			Err: fmt.Sprintf("no ejection for %d cycles", sinceEject)})
	}
}

// runSyntheticLoop steps s to Warmup+SimCycles in cancellation-checked
// chunks, handling periodic checkpoints, CI early stopping and
// telemetry heartbeats (hb may be nil), and returns the final snapshot.
// The chunk size never influences results: checkpoint saves, heartbeats
// and the other telemetry events are pure observers and the CI stopper
// only moves the end of the run, deterministically, as a function of
// the sample stream.
func runSyntheticLoop(ctx context.Context, s *Sim, cfg Config, hb func(RunEvent)) (Result, error) {
	total := cfg.Warmup + cfg.SimCycles
	every := cfg.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	nextSave := int64(math.MaxInt64)
	if cfg.CheckpointPath != "" {
		nextSave = (s.Cycle()/every + 1) * every
	}
	hbEvery := cfg.HeartbeatEvery
	if hbEvery <= 0 {
		hbEvery = DefaultHeartbeatEvery
	}
	nextBeat := int64(math.MaxInt64)
	if hb != nil {
		nextBeat = (s.Cycle()/hbEvery + 1) * hbEvery
	}
	var bm *stats.BatchMeans
	if cfg.StopCI > 0 && s.Net != nil {
		bm = stats.NewBatchMeans(int64(32 * s.Nodes()))
	}
	for s.Cycle() < total {
		chunk := total - s.Cycle()
		if chunk > 1024 {
			chunk = 1024
		}
		s.Run(chunk)
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if s.Cycle() >= nextBeat {
			hb(RunEvent{Kind: RunHeartbeat, Cycle: s.Cycle(), Total: total,
				InFlight: int64(s.InFlightPackets())})
			nextBeat = (s.Cycle()/hbEvery + 1) * hbEvery
		}
		if s.Cycle() >= nextSave {
			if err := s.SaveCheckpointFile(cfg.CheckpointPath); err != nil {
				return Result{}, err
			}
			if hb != nil {
				hb(RunEvent{Kind: RunCheckpointSave, Cycle: s.Cycle(), Total: total})
			}
			nextSave = (s.Cycle()/every + 1) * every
		}
		if bm != nil && s.Cycle() > cfg.Warmup {
			c := s.Collector()
			bm.Update(c.Latency.Count(), c.Latency.Sum())
			if est, ok := bm.Estimate(); ok && est.Rel() <= cfg.StopCI {
				if hb != nil {
					hb(RunEvent{Kind: RunCIStop, Cycle: s.Cycle(), Total: total,
						Attempt: int32(est.Batches)})
				}
				break
			}
		}
	}
	if cfg.CheckpointPath != "" {
		if err := s.SaveCheckpointFile(cfg.CheckpointPath); err != nil {
			return Result{}, err
		}
		if hb != nil {
			hb(RunEvent{Kind: RunCheckpointSave, Cycle: s.Cycle(), Total: total})
		}
	}
	if bm != nil {
		if est, ok := bm.Estimate(); ok {
			s.ci = &est
		}
	}
	if hb != nil {
		hb(RunEvent{Kind: RunDone, Cycle: s.Cycle(), Total: total})
	}
	res := s.Snapshot()
	if bm != nil {
		res.StopCycle = s.Cycle()
		if s.ci != nil {
			res.CIMean = s.ci.Mean
			res.CIHalfWidth = s.ci.HalfWidth
			res.CIBatches = s.ci.Batches
		}
	}
	return res, nil
}

// Fork describes one measurement run branched off a warm checkpoint
// (see RunFork). The zero value re-runs the base configuration
// unchanged.
type Fork struct {
	// Seed, when non-zero, reseeds every RNG stream (network and
	// per-node traffic) at the fork point, giving the fork an
	// independent measurement sample over the same warmed-up state.
	Seed uint64
	// Rate, when positive, overrides the injection rate from the fork
	// point on — the warmup cost of a rate sweep is then paid once.
	Rate float64
}

// forkBase strips what a warm checkpoint and its forks never apply:
// Instrument and Telemetry hooks and checkpoint files.
func forkBase(cfg Config) Config {
	cfg.Instrument, cfg.Telemetry = nil, nil
	cfg.CheckpointPath, cfg.ResumePath = "", ""
	return cfg
}

// WarmCheckpoint runs cfg's warmup (cfg.Warmup cycles) and returns the
// warm state as an in-memory checkpoint, from which RunFork branches
// any number of measurement runs. Instrument and Telemetry hooks and
// checkpoint files are not applied. Deflection schemes are not
// checkpointable and fail with checkpoint.ErrUnsupported.
func WarmCheckpoint(ctx context.Context, cfg Config) ([]byte, error) {
	base := forkBase(cfg)
	s, err := NewSim(base)
	if err != nil {
		return nil, err
	}
	for s.Cycle() < base.Warmup {
		chunk := base.Warmup - s.Cycle()
		if chunk > 1024 {
			chunk = 1024
		}
		s.Run(chunk)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := s.SaveCheckpoint(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RunFork restores snap, a checkpoint WarmCheckpoint made from cfg,
// applies fk's Seed/Rate overrides at the fork point and runs the
// measurement phase to cfg.Warmup+cfg.SimCycles. A fork with zero
// overrides is byte-identical to RunSyntheticCtx of the same config.
// The result records the overridden Seed/Rate in its Config; it
// depends only on (cfg, fk), so forks of one snapshot may run
// concurrently and in any order. Instrument and Telemetry hooks and
// checkpoint files are not applied; CI early stopping (cfg.StopCI) is.
func RunFork(ctx context.Context, cfg Config, snap []byte, fk Fork) (Result, error) {
	base := forkBase(cfg)
	s, err := NewSimFromCheckpoint(base, bytes.NewReader(snap))
	if err != nil {
		return Result{}, err
	}
	if fk.Seed != 0 {
		base.Seed = fk.Seed
		s.Reseed(fk.Seed)
	}
	if fk.Rate > 0 {
		base.InjectionRate = fk.Rate
		s.Synthetic.Rate = fk.Rate
	}
	s.Cfg = base // Snapshot stamps Result.Config with the fork's overrides
	return runSyntheticLoop(ctx, s, base, nil)
}

// Reseed rewinds every RNG stream — the network's arbitration stream
// and the per-node traffic streams — to the deterministic state a
// fresh simulation with the given seed would start from, leaving all
// other simulation state (buffers, in-flight packets, statistics)
// untouched. Used at warmup-fork points to give each fork an
// independent measurement sample from the same warmed-up state.
// Credit-flow networks only.
func (s *Sim) Reseed(seed uint64) {
	s.Net.Rng.SetState(rng.New(seed).State())
	if s.Synthetic != nil {
		s.Synthetic.Reseed(seed)
	}
}

// Drain stops traffic generation and steps until every in-flight
// packet — including transactions the fault layer is still
// retransmitting — has been delivered, or max cycles pass. Returns
// whether the system fully drained. Used by conservation checks: after
// a faulted run, injected == received + discarded-and-retransmitted.
func (s *Sim) Drain(max int64) bool {
	if s.Net == nil {
		return s.Defl.Drained()
	}
	s.Net.Traffic = nil
	return s.Net.Drain(max)
}

// Snapshot summarizes the run so far.
func (s *Sim) Snapshot() Result {
	c := s.Collector()
	e := s.Energy()
	r := Result{
		Config:            s.Cfg,
		AvgLatency:        c.AvgLatency(),
		P50Latency:        c.Latency.Percentile(50),
		P99Latency:        c.Latency.Percentile(99),
		MaxLatency:        c.MaxLatency(),
		ThroughputFlits:   c.Throughput(s.Cycle(), s.Nodes()),
		ThroughputPackets: c.PacketThroughput(s.Cycle(), s.Nodes()),
		ReceivedPackets:   c.ReceivedPackets,
		InjectedPackets:   c.InjectedPackets,
		FFFraction:        c.FFFraction(),
		FFBufferedAvg:     c.FFBufferedPart.Mean(),
		FFFreeAvg:         c.FFFreePart.Mean(),
		RegLatencyAvg:     c.RegLatency.Mean(),
		MisrouteHops:      c.MisrouteHops,
		AvgLinkEnergy:     e.AvgLinkEnergy(),
		PeakLinkEnergy:    e.PeakLinkEnergy(),
		Stalled:           s.Stalled(5000),
	}
	if fi := s.Faults; fi != nil {
		fs := fi.Stats()
		r.Retransmits = fs.Retransmits
		r.FaultDiscards = fs.Discards()
		r.DeadLinks = fs.LinksKilled
	}
	return r
}

// SweepSeed derives the per-job RNG seed for this configuration from
// (Seed, scheme, routing, pattern, injection rate, mesh size, VC
// shape), plus any extra tags (e.g. an application name). Sweeps
// (SaturationThroughputWith, the internal/exp generators through the
// internal/plan planner) seed every job this way rather than from
// shared or ambient state, so each sweep point owns an independent,
// reproducible RNG stream and parallel execution at any worker count
// is byte-identical to serial execution. RunSyntheticCtx itself always
// uses Config.Seed exactly as given.
func (c Config) SweepSeed(tags ...string) uint64 {
	h := rng.NewSeedHash(c.Seed).
		String(string(c.Scheme)).
		String(string(c.Routing)).
		String(c.Pattern).
		Uint64(math.Float64bits(c.InjectionRate)).
		Uint64(uint64(c.Rows)).
		Uint64(uint64(c.Cols)).
		Uint64(uint64(c.VCsPerVNet)).
		Uint64(uint64(c.VNets))
	// Mixed only when set, so fault-free sweeps keep their historical
	// seeds (golden outputs stay byte-identical).
	if c.Faults != "" {
		h = h.String("faults").String(c.Faults)
	}
	for _, tag := range tags {
		h = h.String(tag)
	}
	return h.Seed()
}

// ZeroLoadLatency measures the average latency at a near-zero rate.
func ZeroLoadLatency(cfg Config) (float64, error) {
	return zeroLoadLatencyWith(context.Background(), cfg, RunSyntheticCtx)
}

// zeroLoadLatencyWith is ZeroLoadLatency with the simulation routed
// through run, so callers (the sweep planner's chokepoint) can
// memoize or instrument the probe.
func zeroLoadLatencyWith(ctx context.Context, cfg Config, run func(context.Context, Config) (Result, error)) (float64, error) {
	c := cfg
	c.InjectionRate = 0.005
	c.Seed = c.SweepSeed()
	if c.SimCycles < 20000 {
		c.SimCycles = 20000
	}
	res, err := run(ctx, c)
	if err != nil {
		return 0, err
	}
	return res.AvgLatency, nil
}

// SaturationThroughputWith returns the highest injection rate
// (packets/node/cycle) at which average latency stays below 3x the
// zero-load latency — the standard saturation definition. The returned
// Result is from the last sub-saturation run. Every probe simulation
// (including the zero-load calibration run) executes through run with
// the search's ctx; RunSyntheticCtx runs it directly. The search runs
// a coarse geometric probe phase concurrently across workers workers
// (<= 0: GOMAXPROCS), then narrows the bracketing interval with fixed
// three-point sections whose points also run concurrently. The fan-out
// shape is fixed — never a function of the worker count — and every
// run derives its seed via Config.SweepSeed, so the measured
// saturation point is identical at any parallelism. run only decides
// how each config executes, so a memoizing run function (the sweep
// planner) resolves a repeated search entirely from cache: the probe
// sequence is deterministic, hence so is the sequence of cache keys.
func SaturationThroughputWith(ctx context.Context, cfg Config, workers int, run func(context.Context, Config) (Result, error)) (float64, Result, error) {
	zero, err := zeroLoadLatencyWith(ctx, cfg, run)
	if err != nil {
		return 0, Result{}, err
	}
	limit := 3 * zero
	type probe struct {
		good bool
		res  Result
	}
	// at probes every rate concurrently, results in rate order.
	at := func(rates []float64) ([]probe, error) {
		return runner.Map(ctx, len(rates), func(ctx context.Context, i int) (probe, error) {
			c := cfg
			c.InjectionRate = rates[i]
			c.Seed = c.SweepSeed()
			res, err := run(ctx, c)
			if err != nil {
				return probe{}, err
			}
			return probe{good: !res.Stalled && res.AvgLatency > 0 && res.AvgLatency <= limit, res: res}, nil
		}, runner.WithWorkers(workers))
	}
	// Phase 1: exponential probe up, all points at once, to bracket the
	// knee between the last good and the first bad grid point.
	grid := []float64{0.02, 0.05, 0.11, 0.23, 0.47, 1.0}
	ps, err := at(grid)
	if err != nil {
		return 0, Result{}, err
	}
	lo, hi := 0.005, 1.0
	var last Result
	for i, p := range ps {
		if !p.good {
			hi = grid[i]
			break
		}
		lo, last = grid[i], p.res
	}
	// Phase 2: shrink the bracket 4x per round by evaluating the three
	// interior quartile points together.
	for hi-lo > 0.005 {
		mids := []float64{lo + (hi-lo)/4, lo + (hi-lo)/2, lo + 3*(hi-lo)/4}
		ps, err := at(mids)
		if err != nil {
			return 0, Result{}, err
		}
		newHi := hi
		for i, p := range ps {
			if !p.good {
				newHi = mids[i]
				break
			}
			lo, last = mids[i], p.res
		}
		hi = newHi
	}
	return lo, last, nil
}

// AppResult summarizes one application run (Figs. 14-15).
type AppResult struct {
	App        string
	Scheme     Scheme
	Runtime    int64 // cycles to complete the transaction target
	AvgLatency float64
	MaxLatency int64
	P99Latency int64
	Completed  int64
	Stalled    bool

	// ClassAvgLatency holds per-message-class mean latencies (indexed
	// by coherence class: request, forward, response, ack, writeback,
	// wb-ack).
	ClassAvgLatency []float64
}

// RunApplicationCtx drives a coherence workload to its transaction
// target (or maxCycles) and reports runtime and packet-latency
// statistics. The context is polled every 1024 cycles, so per-job
// deadlines in the experiment harness can bound a wedged run.
func RunApplicationCtx(ctx context.Context, cfg Config, app string, txns, maxCycles int64) (AppResult, error) {
	s, err := NewAppSim(cfg, app, txns)
	if err != nil {
		return AppResult{}, err
	}
	var done func()
	if cfg.Instrument != nil {
		done = cfg.Instrument(s)
	}
	var hb func(RunEvent)
	if cfg.Telemetry != nil {
		hb = cfg.Telemetry(s)
	}
	hbEvery := cfg.HeartbeatEvery
	if hbEvery <= 0 {
		hbEvery = DefaultHeartbeatEvery
	}
	nextBeat := int64(math.MaxInt64)
	if hb != nil {
		nextBeat = hbEvery
		reportStalls(s, hb)
	}
	for !s.App.Done() && s.Cycle() < maxCycles {
		if s.Cycle()&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return AppResult{}, err
			}
			if s.Cycle() >= nextBeat {
				hb(RunEvent{Kind: RunHeartbeat, Cycle: s.Cycle(), Total: maxCycles,
					InFlight: int64(s.InFlightPackets())})
				nextBeat = (s.Cycle()/hbEvery + 1) * hbEvery
			}
		}
		s.Step()
	}
	if hb != nil {
		hb(RunEvent{Kind: RunDone, Cycle: s.Cycle(), Total: maxCycles})
	}
	if done != nil {
		done()
	}
	c := s.Collector()
	perClass := make([]float64, len(c.ClassLatency))
	for i := range perClass {
		perClass[i] = c.ClassAvgLatency(i)
	}
	return AppResult{
		App:             app,
		Scheme:          cfg.Scheme,
		Runtime:         s.Cycle(),
		AvgLatency:      c.AvgLatency(),
		MaxLatency:      c.MaxLatency(),
		P99Latency:      c.Latency.Percentile(99),
		Completed:       s.App.Stats.Completed,
		Stalled:         s.Stalled(5000),
		ClassAvgLatency: perClass,
	}, nil
}

// AreaBreakdown re-exports the analytic router area model (Fig. 7).
type AreaBreakdown = area.Breakdown

// AreaReport sizes each scheme's minimum-buffer router configuration
// (Fig. 7) with 128-bit links.
func AreaReport() []AreaBreakdown {
	var out []AreaBreakdown
	for _, s := range area.Fig7Schemes() {
		out = append(out, area.Router(area.SchemeConfig(s, 128)))
	}
	return out
}
