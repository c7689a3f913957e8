package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"seec"
	"seec/internal/exp"
	"seec/internal/plan"
	"seec/internal/telemetry"
)

// sweep-cold and sweep-warm run a miniature `figures -fig all -quick`
// batch through the exp generators with a fresh plan.Planner: Fig. 8
// on a 4x4 mesh (4 patterns x 3 rates x 10 schemes), Table 3, and
// Fig. 14 on 4x4 for one application. sweep-cold starts every batch on
// an empty store directory, so each of its 133 jobs simulates and
// writes its result durably: hundreds of short runs exercising the
// per-run lifecycle, runner fan-out and its longest-first idle tail,
// the baseline, deflection and coherence code, and store writes.
// sweep-warm reruns the batch over a store a cold batch filled: 133
// store hits and no simulation, i.e. the store's read side plus
// rendering. Every batch has the same composition, so operation times
// stay in one mode.
const (
	sweepSetups  = 3
	sweepWorkers = 2
	sweepCycles  = 2000 // measured cycles per Fig. 8 cell
	sweepAppTxns = 1000
	sweepJobs    = 4*3*10 + 2 + 11 // Fig. 8 cells + Table 3 rows + Fig. 14 variants
	sweepMinOps  = 3
	warmMinOps   = 20
)

// rateBands are the Fig. 8 injection-rate bands on a 4x4 mesh: below,
// near and past saturation (results/figures_quick.txt). The seed draws
// one rate from each; the bands are narrow so that the cost of a batch
// hardly depends on the draw.
var rateBands = [3][2]float64{{0.05, 0.06}, {0.15, 0.16}, {0.27, 0.28}}

// lightApps are coherence profiles with long think times, whose Fig. 14
// runs cost about the same; the seed draws one.
var lightApps = []string{"blackscholes", "swaptions"}

// sweepInputs is what the seed chooses for a batch.
type sweepInputs struct {
	rates []float64
	app   string
}

func sweepInputsFor(seed uint64) sweepInputs {
	r := splitmix{seed ^ 0x5eec5eec}
	var in sweepInputs
	for _, b := range rateBands {
		in.rates = append(in.rates, r.uniform(b[0], b[1]))
	}
	in.app = lightApps[r.pick(len(lightApps))]
	return in
}

// sweepScale is the miniature quick scale the batch runs at.
func sweepScale(in sweepInputs) exp.Scale {
	s := exp.Quick()
	s.MeshSizes = []int{4}
	s.Rates = in.rates
	s.SimCycles = sweepCycles
	s.Apps = []string{in.app}
	s.AppTxns = sweepAppTxns
	s.Workers = sweepWorkers
	s.Shards = 1
	return s
}

// batch is one finished batch.
type batch struct {
	render []byte
	stats  plan.Stats
	genNs  int64 // time in the generators, rendering excluded
	rendNs int64
}

// runBatch runs one batch against the store in dir. st, when non-nil,
// traces it as operation op.
func runBatch(in sweepInputs, dir string, st *sweepTrace, op int) (batch, error) {
	sc := sweepScale(in)
	po := plan.Options{Workers: sweepWorkers, Shards: 1, CacheDir: dir}
	var t *tracer
	if st != nil {
		t = st.t
		po.Bus = st.bus
		sc.SweepEvents = st.bus
		sc.RunEvents = st.runEvents
	}
	root := t.open("op", -1, op)
	defer t.end(root)
	p, err := plan.New(po)
	if err != nil {
		return batch{}, err
	}
	sc.Planner = p
	var tables []*exp.Table
	start := time.Now()
	for _, g := range []struct {
		name, key string // span name, exp.scheme_s key of its cells
		gen       func(exp.Scale) []*exp.Table
	}{
		{"exp.fig8", "", exp.Fig8},
		{"exp.table3", "table3", func(s exp.Scale) []*exp.Table { return []*exp.Table{exp.Table3(s)} }},
		{"exp.fig14", "app", func(s exp.Scale) []*exp.Table { return []*exp.Table{exp.Fig14(s)} }},
	} {
		sp := t.open(g.name, root, op)
		st.enter(g.key, sp, op)
		tables = append(tables, g.gen(sc)...)
		t.end(sp)
	}
	mid := time.Now()
	sp := t.open("exp.render", root, op)
	var buf bytes.Buffer
	for _, tb := range tables {
		tb.Render(&buf)
	}
	t.end(sp)
	return batch{
		render: buf.Bytes(),
		stats:  p.Stats(),
		genNs:  mid.Sub(start).Nanoseconds(),
		rendNs: time.Since(mid).Nanoseconds(),
	}, checkTables(tables)
}

// checkTables fails a batch with an error or missing cell.
func checkTables(tables []*exp.Table) error {
	if len(tables) != 4+1+1 {
		return fmt.Errorf("%d tables, want 6", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			return fmt.Errorf("%s: no rows", tb.ID)
		}
		for _, row := range tb.Rows {
			for _, c := range row {
				if c == "err" || c == "" {
					return fmt.Errorf("%s: failed cell in row %v", tb.ID, row)
				}
			}
		}
	}
	return nil
}

// coldBatch runs a batch on a fresh store directory and checks that
// every job simulated.
func coldBatch(in sweepInputs, dir string, st *sweepTrace, op int) (batch, error) {
	b, err := runBatch(in, dir, st, op)
	if err != nil {
		return b, err
	}
	if b.stats.Jobs != sweepJobs || b.stats.Simulated != b.stats.Jobs {
		return b, fmt.Errorf("cold batch: jobs=%d simulated=%d, want %d of %d", b.stats.Jobs, b.stats.Simulated, sweepJobs, sweepJobs)
	}
	return b, nil
}

func runSweepCold(opt options, out *outcome) error {
	in := sweepInputsFor(opt.seed)
	var ref []byte
	_, err := setUp(opt, out, sweepSetups, func() (struct{}, error) {
		dir := filepath.Join(opt.dir, "setup")
		defer os.RemoveAll(dir)
		b, err := coldBatch(in, dir, nil, -1)
		ref = b.render
		return struct{}{}, err
	})
	if err != nil || opt.child {
		return err
	}
	checkGolden(opt, out, digestOf(ref))
	st := newSweepTrace(out.spans)
	var rend []float64
	measure(opt, out, sweepMinOps, func(i int, traced bool) (opTime, error) {
		dir := filepath.Join(opt.dir, fmt.Sprintf("op-%d", i))
		defer os.RemoveAll(dir)
		var tr *sweepTrace
		if traced {
			tr = st
		}
		sw := startWatch()
		b, err := coldBatch(in, dir, tr, i)
		t := sw.stop()
		rend = append(rend, float64(b.rendNs)/1e6)
		if traced {
			st.note(b, t.wall)
		}
		if err == nil && !bytes.Equal(b.render, ref) {
			err = fmt.Errorf("render differs from the set-up batch's")
		}
		return t, err
	})
	out.layers["exp.render_ms"] = median(rend)
	st.report(out, sweepWorkers)
	return nil
}

func runSweepWarm(opt options, out *outcome) error {
	in := sweepInputsFor(opt.seed)
	var ref []byte
	store := filepath.Join(opt.dir, "store")
	_, err := setUp(opt, out, sweepSetups, func() (struct{}, error) {
		b, err := coldBatch(in, store, nil, -1)
		ref = b.render
		return struct{}{}, err
	})
	if err != nil || opt.child {
		return err
	}
	checkGolden(opt, out, digestOf(ref))
	st := newSweepTrace(out.spans)
	var rend, hitUs []float64
	var hits int64
	measure(opt, out, warmMinOps, func(i int, traced bool) (opTime, error) {
		var tr *sweepTrace
		if traced {
			tr = st
		}
		sw := startWatch()
		b, err := runBatch(in, store, tr, i)
		t := sw.stop()
		rend = append(rend, float64(b.rendNs)/1e6)
		if b.stats.StoreHits > 0 {
			hitUs = append(hitUs, float64(b.genNs)/1e3/float64(b.stats.StoreHits))
		}
		hits += b.stats.StoreHits
		if traced {
			st.note(b, t.wall)
		}
		switch {
		case err != nil:
		case b.stats.Simulated != 0 || b.stats.StoreHits != sweepJobs:
			err = fmt.Errorf("warm batch: simulated=%d store hits=%d, want 0 and %d", b.stats.Simulated, b.stats.StoreHits, sweepJobs)
		case !bytes.Equal(b.render, ref):
			err = fmt.Errorf("warm render differs from the cold render")
		}
		return t, err
	})
	out.layers["exp.render_ms"] = median(rend)
	out.layers["plan.hit_us"] = median(hitUs)
	out.layers["plan.store_hits"] = float64(hits) / float64(out.attempted)
	st.report(out, sweepWorkers)
	return nil
}

func digestOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// sweepTrace is the traced batch's view of the runner and the
// simulations: a telemetry sink on the planner's and generators' bus
// (runner job events) plus the Scale.RunEvents factory (called once a
// cell's simulation is built; its callback sees the run finish). A
// worker runs one cell at a time and emits its job events on its own
// goroutine, so events and factory calls pair up per goroutine.
//
// No telemetry.Aggregator is attached: it would seed the planner's
// cost model and reorder dispatch.
type sweepTrace struct {
	t   *tracer
	bus *telemetry.Bus

	mu       sync.Mutex
	op, sp   int    // current operation and generator span
	key      string // current generator's exp.scheme_s key
	cells    map[uint64]*cellTrace
	cellMs   []float64
	buildMs  []float64
	postMs   []float64
	schemeNs map[string]int64
	opNs     int64 // summed traced operation time
	ops      int
	jobs     int64
	sims     int64
}

// cellTrace is one running cell.
type cellTrace struct {
	span              int
	start, built, ran int64
	scheme            string
}

func newSweepTrace(t *tracer) *sweepTrace {
	if t == nil {
		return nil
	}
	st := &sweepTrace{t: t, cells: map[uint64]*cellTrace{}, schemeNs: map[string]int64{}}
	st.bus = telemetry.NewBus(st)
	return st
}

// enter marks the start of a generator in span sp. key names its
// cells in exp.scheme_s; "" keys each cell by its scheme (Fig. 8).
func (st *sweepTrace) enter(key string, sp, op int) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.key, st.sp, st.op = key, sp, op
	st.mu.Unlock()
}

// Emit implements telemetry.Sink.
func (st *sweepTrace) Emit(e telemetry.Event) {
	switch e.Kind {
	case telemetry.EvJobStart:
		now := st.t.now()
		st.mu.Lock()
		st.cells[gid()] = &cellTrace{span: st.t.add("runner.cell", now, -1, st.sp, st.op), start: now}
		st.mu.Unlock()
	case telemetry.EvJobDone, telemetry.EvJobFail, telemetry.EvJobTimeout, telemetry.EvJobPanic:
		now := st.t.now()
		g := gid()
		st.mu.Lock()
		defer st.mu.Unlock()
		c := st.cells[g]
		if c == nil {
			return
		}
		delete(st.cells, g)
		st.t.end(c.span)
		st.cellMs = append(st.cellMs, float64(now-c.start)/1e6)
		key := st.key
		if key == "" {
			key = c.scheme
		}
		st.schemeNs[key] += now - c.start
		if c.ran > 0 {
			st.postMs = append(st.postMs, float64(now-c.ran)/1e6)
			st.t.add("plan.post_run", c.ran, now, c.span, st.op)
		}
	}
}

// Close implements telemetry.Sink.
func (st *sweepTrace) Close() error { return nil }

// runEvents is the Scale.RunEvents factory: the simulation of the
// calling worker's cell has just been built.
func (st *sweepTrace) runEvents(sim *seec.Sim) func(seec.RunEvent) {
	now := st.t.now()
	st.mu.Lock()
	defer st.mu.Unlock()
	c := st.cells[gid()]
	if c == nil {
		return nil
	}
	c.built, c.scheme = now, string(sim.Cfg.Scheme)
	st.buildMs = append(st.buildMs, float64(now-c.start)/1e6)
	st.t.add("seec.build", c.start, now, c.span, st.op)
	return func(e seec.RunEvent) {
		if e.Kind != seec.RunDone {
			return
		}
		end := st.t.now()
		st.mu.Lock()
		c.ran = end
		st.mu.Unlock()
		st.t.add("seec.run", c.built, end, c.span, st.op)
	}
}

// note records a finished traced batch.
func (st *sweepTrace) note(b batch, d time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.opNs += d.Nanoseconds()
	st.ops++
	st.jobs += b.stats.Jobs
	st.sims += b.stats.Simulated
}

// report fills the sweep layer metrics.
func (st *sweepTrace) report(out *outcome, workers int) {
	if st == nil || st.ops == 0 {
		return
	}
	ops := float64(st.ops)
	var cellNs int64
	for _, ns := range st.schemeNs {
		cellNs += ns
	}
	out.layers["runner.cell_ms_p50"] = median(st.cellMs)
	out.layers["runner.cell_ms_p90"] = quantile(st.cellMs, 0.9)
	out.layers["runner.busy_share"] = float64(cellNs) / (float64(workers) * float64(st.opNs))
	out.layers["seec.build_ms_p50"] = median(st.buildMs)
	out.layers["plan.post_run_ms_p50"] = median(st.postMs)
	out.layers["plan.jobs"] = float64(st.jobs) / ops
	out.layers["plan.simulated"] = float64(st.sims) / ops
	for k, ns := range st.schemeNs {
		out.layers["exp.scheme_s."+k] = float64(ns) / ops / 1e9
	}
}
