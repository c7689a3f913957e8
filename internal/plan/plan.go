// Package plan is the memoizing sweep planner: it takes the full job
// list of a driver run (every cell of every requested figure or
// table), compiles it into a reuse-aware schedule, and executes the
// schedule on the internal/runner worker pool. Three layers stack:
//
//  1. Content-addressed memoization. Before simulating, each job is
//     probed against an in-process LRU and (when a cache directory is
//     configured) the PR 9 internal/serve result store, under exactly
//     the gateway's cache keys — so overlapping cells across figures
//     are computed once, a re-run driver does ~zero simulations
//     against a warm cache, and the figures CLI and the seecd gateway
//     share one cache. Completed points are written back. In-batch
//     duplicates collapse onto one execution.
//
//  2. Warmup-prefix sharing (opt-in, WarmupShare). Jobs that agree on
//     everything except injection rate form a family. A family runs as
//     one warmup unit (seec.WarmCheckpoint), which publishes an
//     in-memory snapshot, plus one fork unit per missing member
//     (seec.RunFork). Each fork is its own runner job, with its own
//     budget, outcome and events, so a family's forks spread across
//     workers and a slow fork fails only its own cell. Sharing changes
//     the sampling plan (shared warm state and seed per family), so it
//     is a flag, not a default. Non-forkable schemes (deflection:
//     CHIPPER, MinBD) run independently.
//
//  3. Longest-first scheduling. Units dispatch in order of cost, the
//     raw (cycles x mesh nodes) they simulate, largest first, to
//     shorten the pool's idle tail; warmup units go before all others,
//     so a fork never waits on a warmup no worker has taken.
//
// Reuse layers 1 and 3 are byte-identity-preserving: results are
// indexed by job, cached payloads are the canonical JSON encoding
// (float64 fields round-trip exactly), and scheduling order never
// leaks into results. A run with reuse renders the same bytes as one
// with NoReuse, where every job simulates.
//
// The pool itself is Map: Run dispatches its units through it, and
// internal/exp fans its generic cells out on it, so Options is the one
// place a sweep's workers, job budget, breaker, events and progress
// are configured.
package plan

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seec"
	"seec/internal/canon"
	"seec/internal/checkpoint"
	"seec/internal/runner"
	"seec/internal/serve"
	"seec/internal/telemetry"
	"seec/internal/trace"
)

// RunFunc executes one synthetic-traffic simulation. The planner calls
// it only for jobs it cannot resolve from the cache; callers supply
// their own (typically wrapping seec.RunSyntheticCtx with driver-level
// config attachment) so the planner stays policy-free.
type RunFunc func(ctx context.Context, cfg seec.Config) (seec.Result, error)

// Job is one requested simulation. With DeriveSeed set, the planner
// derives the per-point seed via Config.SweepSeed() before running —
// the sweep convention every generator and the gateway's multi-point
// specs use — so grid generators hand over their coordinate configs
// untouched and key derivation stays in one place.
type Job struct {
	Cfg        seec.Config
	DeriveSeed bool
}

// exec returns the configuration the job actually executes.
func (j Job) exec() seec.Config {
	c := j.Cfg
	if j.DeriveSeed {
		c.Seed = c.SweepSeed()
	}
	return c
}

// Outcome is one job's resolution, or one Map call's. Done is false
// only when the batch was cancelled (context or breaker) before the
// job executed — the caller renders such cells as zero values. Elapsed
// is, for a failed job, the wall time of the unit that ran it (for a
// fork, its own unit's, not its warmup's); it is zero otherwise.
type Outcome struct {
	Result  seec.Result
	Err     error
	Done    bool
	Elapsed time.Duration
}

// Options configures a Planner.
type Options struct {
	// Workers bounds the execution worker pool (<= 0: GOMAXPROCS).
	Workers int
	// Shards has no effect.
	//
	// Deprecated: runs are serial. Its only user is the perfbench
	// module, which sets it to 1.
	Shards int
	// JobTimeout bounds each call of a Map, so each of Run's execution
	// units — an independent job, a family's warmup or one fork — from
	// its dispatch (<= 0: unbounded). A fork's budget includes its
	// wait for the warmup.
	JobTimeout time.Duration
	// MaxFailures trips a Map's breaker after k failed calls (<= 0:
	// drain everything and report per call).
	MaxFailures int
	// WarmupShare turns on warmup-prefix family forking. Off by
	// default: sharing changes the sampling plan, so results differ
	// statistically from independent runs (see the -warmup-share
	// flag's caveat).
	WarmupShare bool
	// NoReuse disables memoization and in-batch dedup — every job
	// simulates — while keeping cost-model scheduling. For A/B runs.
	NoReuse bool
	// CacheDir roots a persistent serve.Store ("" = LRU only). The
	// layout is the gateway's, so a seecd result directory works.
	CacheDir string
	// Bus receives plan_compile/warmup_fork/warmup_fallback and
	// cache_hit/miss/quarantine events, plus the pool's sweep and job
	// events.
	Bus *telemetry.Bus
	// Progress, when set, is called with monotonic (done, total) counts
	// as a Map call's calls succeed, at most once per ProgressEvery (0:
	// on every success) and always when done reaches total.
	Progress      func(done, total int)
	ProgressEvery time.Duration
}

// memEntries caps the in-process LRU.
const memEntries = 4096

// Stats counts what the planner did across its lifetime.
type Stats struct {
	Jobs              int64 // jobs submitted via Run/RunOne/Memoize computes
	Deduped           int64 // in-batch duplicates collapsed
	MemHits           int64 // resolved from the in-process LRU
	StoreHits         int64 // resolved from the persistent store
	Simulated         int64 // simulations actually executed
	WarmupFamilies    int64 // families whose warmup checkpointed
	WarmupForks       int64 // members scheduled as forks of a warm state
	WarmupCyclesSaved int64 // warmup cycles not re-simulated
	WarmupFallbacks   int64 // families that ran independently instead
	Quarantined       int64 // corrupt store blobs quarantined on read
}

// Reused is the number of jobs resolved without simulating.
func (s Stats) Reused() int64 { return s.Deduped + s.MemHits + s.StoreHits }

// Planner is the reuse-aware scheduler. All methods are safe for
// concurrent use.
type Planner struct {
	opts    Options
	store   *serve.Store
	started time.Time // for the manifest

	// warmCheckpoint and runFork are the two halves of a forked run,
	// fields so that a test can fail or stall a single unit.
	warmCheckpoint func(context.Context, seec.Config) ([]byte, error)
	runFork        func(context.Context, seec.Config, []byte, seec.Fork) (seec.Result, error)

	mu    sync.Mutex
	mem   *lruCache
	stats Stats
}

// New opens a planner, creating the persistent store when Options.
// CacheDir is set.
func New(o Options) (*Planner, error) {
	p := &Planner{
		opts: o, mem: newLRU(memEntries), started: time.Now(),
		warmCheckpoint: seec.WarmCheckpoint, runFork: seec.RunFork,
	}
	if o.CacheDir != "" {
		st, err := serve.NewStore(serve.OSFS{}, o.CacheDir)
		if err != nil {
			return nil, err
		}
		p.store = st
	}
	return p, nil
}

// Fresh returns a planner on which every job executes afresh: no cache
// read or write, no dedup (NoReuse) and no warmup fork (no
// WarmupShare). Instrumented runs need one, so that each job's hooks
// fire once and observing cannot change a number. That is p itself
// when p already runs so; otherwise it is a new store-less NoReuse
// planner on p's pool: p's workers, job budget, breaker, bus and
// progress.
func (p *Planner) Fresh() *Planner {
	if p.opts.NoReuse && !p.opts.WarmupShare {
		return p
	}
	o := p.opts
	o.NoReuse, o.WarmupShare, o.CacheDir = true, false, ""
	q, _ := New(o) // New fails only opening a store, and q has none
	return q
}

// Stats returns a snapshot of the lifetime counters.
func (p *Planner) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// lookup probes the LRU, then the store. A corrupt store blob has been
// quarantined by the store itself; lookup records the event and
// reports a miss so the caller transparently re-simulates.
func (p *Planner) lookup(key string) ([]byte, bool) {
	if p.opts.NoReuse {
		return nil, false
	}
	p.mu.Lock()
	b, ok := p.mem.get(key)
	p.mu.Unlock()
	if ok {
		p.bump(func(s *Stats) { s.MemHits++ })
		p.opts.Bus.Emit(telemetry.Event{Kind: telemetry.EvCacheHit, Job: -1})
		return b, true
	}
	if p.store != nil {
		b, ok, err := p.store.Get(key)
		if err != nil {
			p.bump(func(s *Stats) { s.Quarantined++ })
			p.opts.Bus.Emit(telemetry.Event{Kind: telemetry.EvCacheQuarantine, Job: -1, Err: err.Error()})
		}
		if ok {
			p.mu.Lock()
			p.mem.put(key, b)
			p.stats.StoreHits++
			p.mu.Unlock()
			p.opts.Bus.Emit(telemetry.Event{Kind: telemetry.EvCacheHit, Job: -1})
			return b, true
		}
	}
	p.opts.Bus.Emit(telemetry.Event{Kind: telemetry.EvCacheMiss, Job: -1})
	return nil, false
}

// putPayload writes a completed payload back to both cache levels.
// Store writes are best-effort: a failed write costs future reuse,
// never correctness.
func (p *Planner) putPayload(key string, payload []byte) {
	if p.opts.NoReuse {
		return
	}
	p.mu.Lock()
	p.mem.put(key, payload)
	p.mu.Unlock()
	if p.store != nil {
		_ = p.store.Put(key, payload)
	}
}

// put marshals and writes a result back. Results that do not survive
// JSON (NaN from a degenerate run) are simply not cached.
func (p *Planner) put(key string, res seec.Result) {
	if b, err := json.Marshal(res); err == nil {
		p.putPayload(key, b)
	}
}

func (p *Planner) bump(f func(*Stats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}

// cost is the scheduling cost of simulating the given cycles of cfg's
// mesh: cycles times mesh nodes, the quantity the hot loop's runtime
// is proportional to.
func cost(cfg seec.Config, cycles int64) float64 {
	return float64(cycles * int64(cfg.Rows) * int64(cfg.Cols))
}

// noteSim counts one executed simulation.
func (p *Planner) noteSim() { p.bump(func(s *Stats) { s.Simulated++ }) }

// family is one warmup-prefix sharing group: jobs identical except
// injection rate, executed as one warmup unit plus one fork unit per
// missing member.
type family struct {
	members []int       // job indices, submission order
	base    seec.Config // mid-rate member, seed = SweepSeed("warmup-share")
	missing []int       // members the cache did not resolve

	ready chan struct{} // closed when the warmup unit ends, however it ends
	snap  []byte        // warm checkpoint; nil once every fork has it
	err   error         // the warmup's failure; read after ready
	left  atomic.Int32  // forks yet to take the snapshot
}

// forkable reports whether a scheme's simulation state checkpoints.
// Deflection schemes do not (checkpoint.ErrUnsupported); excluding
// them up front keeps their sweeps independent — and therefore
// cacheable under ordinary keys — instead of re-discovering the
// fallback on every warm run.
func forkable(s seec.Scheme) bool {
	return s != seec.SchemeCHIPPER && s != seec.SchemeMinBD
}

// RunOne resolves a single already-derived configuration through the
// cache, simulating via run on a miss. The chokepoint path for
// irregular sweeps (saturation probes, one-off measurement runs).
func (p *Planner) RunOne(ctx context.Context, cfg seec.Config, run RunFunc) (seec.Result, error) {
	p.bump(func(s *Stats) { s.Jobs++ })
	key := serve.CacheKey(cfg)
	if b, ok := p.lookup(key); ok {
		if res, err := canon.Decode[seec.Result](b); err == nil {
			return res, nil
		}
		// Undecodable payload (format drift): re-simulate.
	}
	res, err := run(ctx, cfg)
	if err != nil {
		return res, err
	}
	p.noteSim()
	p.put(key, res)
	return res, nil
}

// Memoize resolves key through the planner's cache, computing and
// writing back on a miss. The generic escape hatch for results that
// are not seec.Result payloads (application runs, derived
// measurements); values must round-trip JSON exactly for reuse to be
// byte-identity-preserving. Compute errors are returned uncached, so
// a cancelled run is never served later.
func Memoize[T any](ctx context.Context, p *Planner, key string, compute func(ctx context.Context) (T, error)) (T, error) {
	p.bump(func(s *Stats) { s.Jobs++ })
	if b, ok := p.lookup(key); ok {
		if v, err := canon.Decode[T](b); err == nil {
			return v, nil
		}
	}
	v, err := compute(ctx)
	if err != nil {
		return v, err
	}
	p.noteSim()
	if b, mErr := json.Marshal(v); mErr == nil {
		p.putPayload(key, b)
	}
	return v, nil
}

// Run compiles a job batch into a reuse-aware schedule and executes
// it: dedup identical jobs, probe the cache, split the remainder into
// independent units and, when WarmupShare is on, one warmup unit plus
// one fork unit per missing family member, sort the units
// longest-first with warmups ahead, and fan them out through Map.
// The returned slice is indexed by job.
func (p *Planner) Run(ctx context.Context, jobs []Job, run RunFunc) []Outcome {
	n := len(jobs)
	outs := make([]Outcome, n)
	if n == 0 {
		return outs
	}
	p.bump(func(s *Stats) { s.Jobs += int64(n) })

	exec := make([]seec.Config, n)
	for i, j := range jobs {
		exec[i] = j.exec()
	}

	// Layer 1: warmup families. Grouping runs over the raw batch so
	// the member order — and with it the base (mid-rate) member and
	// the fork order — follows the submission order exactly, which is
	// what internal/exp's warmup-share golden pins.
	famOf := make([]int, n)
	for i := range famOf {
		famOf[i] = -1
	}
	var fams []*family
	if p.opts.WarmupShare {
		byKey := make(map[string]int)
		for i, j := range jobs {
			if !j.DeriveSeed || j.Cfg.InjectionRate <= 0 || !forkable(j.Cfg.Scheme) {
				continue
			}
			fk := familyKey(j.Cfg)
			fi, ok := byKey[fk]
			if !ok {
				fi = len(fams)
				fams = append(fams, &family{})
				byKey[fk] = fi
			}
			fams[fi].members = append(fams[fi].members, i)
		}
		kept := fams[:0]
		for _, f := range fams {
			if len(f.members) < 2 {
				continue // a lone point gains nothing from forking
			}
			base := jobs[f.members[len(f.members)/2]].Cfg
			base.Seed = base.SweepSeed("warmup-share")
			f.base = base
			fi := len(kept)
			kept = append(kept, f)
			for _, m := range f.members {
				famOf[m] = fi
			}
		}
		fams = kept
	}

	// Keys: family members are addressed in the forked key space —
	// their bytes embody the shared sampling plan, which must never
	// alias an independent run of the same echoed config.
	keys := make([]string, n)
	for i := range jobs {
		if fi := famOf[i]; fi >= 0 {
			keys[i] = forkKey(fams[fi].base, exec[i].InjectionRate)
		} else {
			keys[i] = serve.CacheKey(exec[i])
		}
	}

	// Layer 2: dedup and cache probe. Followers resolve by copying
	// their leader's outcome at the end.
	var (
		order     []int // leader indices, submission order
		followers = make(map[int][]int)
	)
	if p.opts.NoReuse {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	} else {
		leaderOf := make(map[string]int, n)
		for i := range jobs {
			if l, ok := leaderOf[keys[i]]; ok {
				followers[l] = append(followers[l], i)
				continue
			}
			leaderOf[keys[i]] = i
			order = append(order, i)
		}
		p.bump(func(s *Stats) { s.Deduped += int64(n - len(order)) })
	}
	reused := n - len(order)
	var pending []int
	for _, i := range order {
		if b, ok := p.lookup(keys[i]); ok {
			if res, err := canon.Decode[seec.Result](b); err == nil {
				outs[i] = Outcome{Result: res, Done: true}
				reused++
				continue
			}
		}
		if fi := famOf[i]; fi >= 0 {
			fams[fi].missing = append(fams[fi].missing, i)
		} else {
			pending = append(pending, i)
		}
	}

	// Layer 3: execution units, longest-first. A family's forks wait
	// for its warmup, so warmups dispatch ahead of every other unit:
	// a fork then waits at most one warmup. Forking a partial family
	// is sound because every fork restores from the same snapshot — a
	// member's bytes depend only on (base, own rate).
	type unit struct {
		fam  *family // nil = independent job
		job  int     // job index, -1 = the family's warmup
		cost float64
	}
	var units []unit
	for _, i := range pending {
		units = append(units, unit{job: i, cost: cost(exec[i], exec[i].Warmup+exec[i].SimCycles)})
	}
	for _, f := range fams {
		if len(f.missing) == 0 {
			continue
		}
		f.ready = make(chan struct{})
		f.left.Store(int32(len(f.missing)))
		units = append(units, unit{fam: f, job: -1, cost: cost(f.base, f.base.Warmup)})
		for _, m := range f.missing {
			units = append(units, unit{fam: f, job: m, cost: cost(exec[m], exec[m].SimCycles)})
		}
	}
	sort.SliceStable(units, func(a, b int) bool {
		ua, ub := units[a], units[b]
		if wa, wb := ua.job < 0, ub.job < 0; wa != wb {
			return wa
		}
		if ua.cost != ub.cost {
			return ua.cost > ub.cost
		}
		return ua.job < ub.job
	})

	p.opts.Bus.Emit(telemetry.Event{
		Kind: telemetry.EvPlanCompile, Job: -1,
		Total: int64(n), Cycle: int64(reused), InFlight: int64(len(units)),
	})

	// Outcomes carry the per-job errors, and cancelled (never-executed)
	// jobs stay Done=false for the caller to render as zero cells.
	unitOuts := p.Map(ctx, len(units), func(ctx context.Context, ui int) error {
		u := units[ui]
		switch {
		case u.fam == nil:
			return p.simulate(ctx, exec[u.job], keys[u.job], &outs[u.job], run)
		case u.job < 0:
			return p.warmup(ctx, u.fam)
		default:
			return p.fork(ctx, u.fam, exec[u.job], keys[u.job], &outs[u.job], run)
		}
	})
	// A failed unit's job takes the wall time Map measured for it. Only
	// a unit that panicked wrote no outcome: its job records the
	// recovered panic as its error. A warmup has no job of its own; its
	// failure reaches its members through their forks.
	for ui, uo := range unitOuts {
		i := units[ui].job
		if uo.Err == nil || i < 0 {
			continue
		}
		if !outs[i].Done {
			outs[i] = Outcome{Err: uo.Err, Done: true}
		}
		outs[i].Elapsed = uo.Elapsed
	}

	for l, fs := range followers {
		for _, i := range fs {
			outs[i] = outs[l]
		}
	}
	return outs
}

// Map runs fn(ctx, i) for every i in [0, n) on the planner's worker
// pool, under its per-call JobTimeout, its MaxFailures breaker, job
// events on its Bus and its Progress hook, and returns one Outcome per
// call: Done once the call ran, Err its error (a panic is recovered
// into one) and, for a failed call, Elapsed its wall time. Calls that
// the breaker or ctx cancelled before they ran stay Done=false.
// Result is unused.
func (p *Planner) Map(ctx context.Context, n int, fn func(ctx context.Context, i int) error) []Outcome {
	outs := make([]Outcome, n)
	mf := p.opts.MaxFailures
	if mf <= 0 {
		mf = n + 1 // never trip: drain and report per call
	}
	_, err := runner.Map(ctx, n, func(ctx context.Context, i int) (struct{}, error) {
		outs[i].Done = true
		return struct{}{}, fn(ctx, i)
	},
		runner.WithWorkers(p.opts.Workers),
		runner.WithJobTimeout(p.opts.JobTimeout),
		runner.WithMaxFailures(mf),
		runner.WithTelemetry(p.opts.Bus),
		runner.WithProgress(p.opts.Progress),
		runner.WithProgressThrottle(p.opts.ProgressEvery),
	)
	var se *runner.SweepError
	if errors.As(err, &se) {
		for _, f := range se.Failures {
			outs[f.Index] = Outcome{Err: f.Err, Done: true, Elapsed: f.Elapsed}
		}
	}
	return outs
}

// simulate runs one cache-missed job independently and writes it back
// under key.
func (p *Planner) simulate(ctx context.Context, cfg seec.Config, key string, out *Outcome, run RunFunc) error {
	res, err := run(ctx, cfg)
	*out = Outcome{Result: res, Err: err, Done: true}
	if err != nil {
		return err
	}
	p.noteSim()
	p.put(key, res)
	return nil
}

// warmup is a family's warmup unit: it warms the family base and
// publishes the snapshot to the family's forks. ready closes however
// the unit ends, a panic included, so no fork waits on a dead warmup.
// A state that cannot checkpoint (possible in principle even past the
// static scheme check) is no failure: the forks then run their members
// independently.
func (p *Planner) warmup(ctx context.Context, f *family) error {
	defer close(f.ready)
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("warmup panic: %v", r)
			panic(r) // the runner records it with its stack
		}
	}()
	f.snap, f.err = p.warmCheckpoint(ctx, f.base)
	n := int64(len(f.missing))
	if errors.Is(f.err, checkpoint.ErrUnsupported) {
		p.opts.Bus.Emit(telemetry.Event{
			Kind: telemetry.EvWarmupFallback, Job: -1, Total: n, Err: f.err.Error(),
		})
		p.bump(func(s *Stats) { s.WarmupFallbacks++ })
		return nil
	}
	if f.err != nil {
		return f.err
	}
	saved := (n - 1) * f.base.Warmup
	p.opts.Bus.Emit(telemetry.Event{Kind: telemetry.EvWarmupFork, Job: -1, Total: n, Cycle: saved})
	p.bump(func(s *Stats) {
		s.WarmupFamilies++
		s.WarmupForks += n
		s.WarmupCyclesSaved += saved
	})
	return nil
}

// fork is one member's fork unit: it waits for the family's warmup,
// restores the snapshot and measures the member at its own rate. A
// fork cancelled before the warmup ends never takes the snapshot, which
// then lives until Run returns; otherwise the last fork to take it
// drops the family's reference. The fallback for a state that cannot
// checkpoint runs the member independently, cached under its
// independent key, since those are the bytes it produces.
func (p *Planner) fork(ctx context.Context, f *family, cfg seec.Config, key string, out *Outcome, run RunFunc) error {
	select {
	case <-f.ready:
	case <-ctx.Done():
		*out = Outcome{Err: ctx.Err(), Done: true}
		return ctx.Err()
	}
	snap := f.snap
	if f.left.Add(-1) == 0 {
		f.snap = nil
	}
	if errors.Is(f.err, checkpoint.ErrUnsupported) {
		return p.simulate(ctx, cfg, serve.CacheKey(cfg), out, run)
	}
	if f.err != nil {
		*out = Outcome{Err: f.err, Done: true}
		return f.err
	}
	res, err := p.runFork(ctx, f.base, snap, seec.Fork{Rate: cfg.InjectionRate})
	*out = Outcome{Result: res, Err: err, Done: true}
	if err != nil {
		return err
	}
	p.noteSim()
	p.put(key, res)
	return nil
}

// WriteManifest records the planner's lifetime stats as a provenance
// manifest next to the persistent cache (<cache-dir>/plan.manifest.
// json); its start time is New's, so wall_seconds spans the planner's
// life. A no-op without a cache directory: a purely in-process cache
// leaves nothing on disk to describe.
func (p *Planner) WriteManifest(tool string, args []string) error {
	if p.store == nil {
		return nil
	}
	s := p.Stats()
	m := trace.NewManifest(tool, args)
	m.Started = p.started
	m.Note = "sweep plan provenance"
	m.Plan = &trace.PlanSection{
		Jobs:              s.Jobs,
		Deduped:           s.Deduped,
		MemHits:           s.MemHits,
		StoreHits:         s.StoreHits,
		Simulated:         s.Simulated,
		WarmupFamilies:    s.WarmupFamilies,
		WarmupForks:       s.WarmupForks,
		WarmupCyclesSaved: s.WarmupCyclesSaved,
		WarmupFallbacks:   s.WarmupFallbacks,
		Quarantined:       s.Quarantined,
	}
	return m.Write(filepath.Join(p.opts.CacheDir, "plan"))
}
