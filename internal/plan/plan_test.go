package plan

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"seec"
	"seec/internal/checkpoint"
	"seec/internal/serve"
	"seec/internal/telemetry"
)

// directRun is the test RunFunc: plain uncached execution.
func directRun(ctx context.Context, cfg seec.Config) (seec.Result, error) {
	return seec.RunSyntheticCtx(ctx, cfg)
}

// smallCfg is a fast 4x4 point for cache round-trip tests.
func smallCfg(rate float64) seec.Config {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Warmup = 200
	cfg.SimCycles = 400
	cfg.InjectionRate = rate
	return cfg
}

// TestPlannerKeyParity pins the planner's job addressing to the seecd
// store's: a sweep point planned by a driver and the same point
// submitted to the gateway must share one cache entry. The golden
// values are copied from serve's TestCacheKeyGolden ("sweep derives
// per-point seeds"), so a drift on either side breaks one of the two
// tests by name.
func TestPlannerKeyParity(t *testing.T) {
	// Already-derived configs (gateway lowering) must address exactly
	// serve.CacheKey.
	for _, spec := range []string{
		`{}`,
		`{"rate":0.05,"seed":7}`,
		`{"rates":[0.02,0.08],"seed":3}`,
		`{"scheme":"chipper","rows":4,"cols":4,"warmup":500,"sim_cycles":5000,"rate":0.1}`,
	} {
		sp, err := serve.DecodeJobSpec([]byte(spec))
		if err != nil {
			t.Fatalf("decode %s: %v", spec, err)
		}
		for i, cfg := range sp.Configs() {
			if got, want := Key(Job{Cfg: cfg}), serve.CacheKey(cfg); got != want {
				t.Errorf("spec %s run %d: Key %s != serve.CacheKey %s", spec, i, got, want)
			}
		}
	}

	// Planner-side derivation parity: generators hand over coordinate
	// configs with DeriveSeed set; the derived key must equal the one
	// the gateway computes after its own SweepSeed derivation.
	sp, err := serve.DecodeJobSpec([]byte(`{"rates":[0.02,0.08],"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	lowered := sp.Configs()
	golden := []string{
		"6feb708f3271e0ddbe806698bf6b78b161408aeec33608a56e0d90b1cfe7bf83",
		"3763b07d7724cb6f3a0475e02042b96dff7fec5b4db55e84bbcf30d725c13497",
	}
	if len(lowered) != len(golden) {
		t.Fatalf("lowered to %d runs, want %d", len(lowered), len(golden))
	}
	for i, rate := range []float64{0.02, 0.08} {
		c := seec.DefaultConfig()
		c.Seed = 3
		c.InjectionRate = rate
		got := Key(Job{Cfg: c, DeriveSeed: true})
		if got != golden[i] {
			t.Errorf("rate %g: planner key %s != golden %s", rate, got, golden[i])
		}
		if want := serve.CacheKey(lowered[i]); got != want {
			t.Errorf("rate %g: planner key %s != gateway key %s", rate, got, want)
		}
	}
}

// TestForkKeySpace pins the fork key space apart from the ordinary
// result space: a warmup-shared member's bytes embody the shared
// sampling plan, so its key must never alias an independent run of the
// same echoed config — and distinct rates must never collide.
func TestForkKeySpace(t *testing.T) {
	base := smallCfg(0.15)
	base.Seed = base.SweepSeed("warmup-share")
	indep := smallCfg(0.05)
	indep.Seed = indep.SweepSeed()
	fk := forkKey(base, 0.05)
	if !serve.ValidKey(fk) {
		t.Fatalf("forkKey not a valid store key: %s", fk)
	}
	if fk == serve.CacheKey(indep) {
		t.Error("fork key aliases the independent result key")
	}
	if fk == forkKey(base, 0.15) {
		t.Error("distinct rates share a fork key")
	}
}

// TestPlannerRunDedupAndWarmStore: one batch with an in-batch
// duplicate simulates each unique point once; a fresh planner over the
// same cache directory resolves the whole batch with zero simulations
// and identical results.
func TestPlannerRunDedupAndWarmStore(t *testing.T) {
	dir := t.TempDir()
	jobs := []Job{
		{Cfg: smallCfg(0.05), DeriveSeed: true},
		{Cfg: smallCfg(0.10), DeriveSeed: true},
		{Cfg: smallCfg(0.05), DeriveSeed: true}, // duplicate of job 0
	}
	p1, err := New(Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	outs1 := p1.Run(context.Background(), jobs, directRun)
	for i, o := range outs1 {
		if !o.Done || o.Err != nil {
			t.Fatalf("job %d: done=%v err=%v", i, o.Done, o.Err)
		}
	}
	if !reflect.DeepEqual(outs1[0].Result, outs1[2].Result) {
		t.Error("duplicate jobs resolved to different results")
	}
	st := p1.Stats()
	if st.Deduped != 1 || st.Simulated != 2 {
		t.Errorf("cold stats: deduped=%d simulated=%d, want 1/2", st.Deduped, st.Simulated)
	}

	p2, err := New(Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	outs2 := p2.Run(context.Background(), jobs, directRun)
	if !reflect.DeepEqual(outs1, outs2) {
		t.Error("warm-store outcomes differ from cold outcomes")
	}
	st2 := p2.Stats()
	if st2.Simulated != 0 {
		t.Errorf("warm run simulated %d jobs, want 0", st2.Simulated)
	}
	if st2.StoreHits == 0 {
		t.Error("warm run recorded no store hits")
	}

	// Stores filled while seec.Config had a Shards field carry
	// "Shards":1 in every cached Result.Config (figures recorded its
	// derived shard count there). The keys never included it, and the
	// field is ignored on decode, so such blobs stay warm.
	store, err := serve.NewStore(serve.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs[:2] {
		key := Key(j)
		b, ok, err := store.Get(key)
		if !ok || err != nil {
			t.Fatalf("blob %s: ok=%v err=%v", key[:8], ok, err)
		}
		old := bytes.Replace(b, []byte(`"Config":{`), []byte(`"Config":{"Shards":1,`), 1)
		if bytes.Equal(old, b) {
			t.Fatalf("blob %s: no Config object in %s", key[:8], b)
		}
		if err := store.Put(key, old); err != nil {
			t.Fatal(err)
		}
	}
	p3, err := New(Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	outs3 := p3.Run(context.Background(), jobs, directRun)
	if !reflect.DeepEqual(outs1, outs3) {
		t.Error("outcomes from blobs carrying Shards differ from cold outcomes")
	}
	if st3 := p3.Stats(); st3.Simulated != 0 || st3.StoreHits != 2 || st3.Quarantined != 0 {
		t.Errorf("blobs carrying Shards: simulated=%d store-hits=%d quarantined=%d, want 0/2/0",
			st3.Simulated, st3.StoreHits, st3.Quarantined)
	}
}

// TestCorruptBlobQuarantinedAndResimulated: a corrupt store blob hit
// during a planner run is quarantined and transparently re-simulated —
// never decoded, never served.
func TestCorruptBlobQuarantinedAndResimulated(t *testing.T) {
	dir := t.TempDir()
	job := Job{Cfg: smallCfg(0.10), DeriveSeed: true}
	key := Key(job)

	p1, err := New(Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := p1.Run(context.Background(), []Job{job}, directRun)[0]
	if !want.Done || want.Err != nil {
		t.Fatalf("seed run: %+v", want)
	}

	blob := filepath.Join(dir, "objects", key[:2], key)
	if err := os.WriteFile(blob, []byte("SEECRES1 00000000\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	p2, err := New(Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got := p2.Run(context.Background(), []Job{job}, directRun)[0]
	if !got.Done || got.Err != nil {
		t.Fatalf("post-corruption run: %+v", got)
	}
	if !reflect.DeepEqual(want.Result, got.Result) {
		t.Error("re-simulated result differs from the original")
	}
	st := p2.Stats()
	if st.Quarantined != 1 {
		t.Errorf("quarantined=%d, want 1", st.Quarantined)
	}
	if st.Simulated != 1 {
		t.Errorf("simulated=%d, want 1 (the corrupt point must re-simulate)", st.Simulated)
	}
	qs, err := filepath.Glob(filepath.Join(dir, "quarantine", key+".*"))
	if err != nil || len(qs) == 0 {
		t.Errorf("corrupt blob not moved to quarantine (glob err %v, %d matches)", err, len(qs))
	}

	// The repaired entry must serve cleanly now.
	p3, err := New(Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	again := p3.Run(context.Background(), []Job{job}, directRun)[0]
	if !reflect.DeepEqual(want.Result, again.Result) || p3.Stats().Simulated != 0 {
		t.Errorf("rewritten entry did not serve from cache (simulated=%d)", p3.Stats().Simulated)
	}
}

// TestMemoizeErrorNotCached: a compute error (cancellation) is
// returned but never written back, so the next call recomputes.
func TestMemoizeErrorNotCached(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := MeasKey("test-memoize", smallCfg(0.05))
	calls := 0
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Memoize(ctx, p, key, func(ctx context.Context) (int, error) {
		calls++
		return 0, ctx.Err()
	})
	if err == nil {
		t.Fatal("cancelled compute returned no error")
	}
	v, err := Memoize(context.Background(), p, key, func(context.Context) (int, error) {
		calls++
		return 42, nil
	})
	if err != nil || v != 42 || calls != 2 {
		t.Fatalf("v=%d err=%v calls=%d, want 42/nil/2", v, err, calls)
	}
	v, err = Memoize(context.Background(), p, key, func(context.Context) (int, error) {
		calls++
		return 0, nil
	})
	if err != nil || v != 42 || calls != 2 {
		t.Fatalf("cached v=%d err=%v calls=%d, want 42/nil/2", v, err, calls)
	}
}

// TestRunRecordsPanicAndElapsed: a job whose run panics resolves as
// executed with the recovered panic as its error and its unit's wall
// time, so callers report it like any other failure; the other jobs
// complete.
func TestRunRecordsPanicAndElapsed(t *testing.T) {
	p, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{Cfg: smallCfg(0.05)}, {Cfg: smallCfg(0.10)}}
	outs := p.Run(context.Background(), jobs, func(ctx context.Context, cfg seec.Config) (seec.Result, error) {
		if cfg.InjectionRate == 0.10 {
			panic("run exploded")
		}
		return seec.RunSyntheticCtx(ctx, cfg)
	})
	if o := outs[0]; !o.Done || o.Err != nil || o.Result.ReceivedPackets == 0 {
		t.Fatalf("healthy job: done=%v err=%v received=%d", o.Done, o.Err, o.Result.ReceivedPackets)
	}
	if o := outs[1]; !o.Done || o.Err == nil || !strings.Contains(o.Err.Error(), "run exploded") || o.Elapsed <= 0 {
		t.Fatalf("panicking job: done=%v err=%v elapsed=%v, want the recovered panic and its wall time",
			o.Done, o.Err, o.Elapsed)
	}
}

// forkJobs is two warmup families of three rate points each, SEEC then
// mSEEC on small meshes, as a -warmup-share sweep submits them.
func forkJobs() []Job {
	var jobs []Job
	for _, scheme := range []seec.Scheme{seec.SchemeSEEC, seec.SchemeMSEEC} {
		for _, rate := range []float64{0.05, 0.10, 0.20} {
			cfg := smallCfg(rate)
			cfg.Scheme = scheme
			jobs = append(jobs, Job{Cfg: cfg, DeriveSeed: true})
		}
	}
	return jobs
}

// runForks runs jobs on a fresh warmup-sharing planner, after setup
// (if any) has adjusted it. It fails the test if Run has not returned
// after a minute, so a fork left waiting on its warmup shows as a
// failure rather than a hung suite.
func runForks(t *testing.T, o Options, jobs []Job, setup func(*Planner)) ([]Outcome, Stats) {
	t.Helper()
	o.WarmupShare = true
	p, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(p)
	}
	done := make(chan []Outcome, 1)
	go func() { done <- p.Run(context.Background(), jobs, directRun) }()
	select {
	case outs := <-done:
		return outs, p.Stats()
	case <-time.After(time.Minute):
		t.Fatal("planner run still waiting after a minute")
		return nil, Stats{}
	}
}

// eventLog is a telemetry sink that keeps every event.
type eventLog struct {
	mu  sync.Mutex
	evs []telemetry.Event
}

func (l *eventLog) Emit(e telemetry.Event) {
	l.mu.Lock()
	l.evs = append(l.evs, e)
	l.mu.Unlock()
}

func (l *eventLog) Close() error { return nil }

func (l *eventLog) count(k telemetry.Kind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.evs {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TestForkUnitsOnBus: a family runs as one warmup job plus one job per
// fork, each with its own job events on the bus, and its outcomes do
// not depend on the worker count.
func TestForkUnitsOnBus(t *testing.T) {
	jobs := forkJobs()
	serial, _ := runForks(t, Options{Workers: 1}, jobs, nil)
	for _, workers := range []int{2, 4} {
		log := &eventLog{}
		outs, st := runForks(t, Options{Workers: workers, Bus: telemetry.NewBus(log)}, jobs, nil)
		for i, o := range outs {
			if !o.Done || o.Err != nil {
				t.Fatalf("workers=%d job %d: done=%v err=%v", workers, i, o.Done, o.Err)
			}
			a, _ := json.Marshal(o.Result)
			b, _ := json.Marshal(serial[i].Result)
			if !bytes.Equal(a, b) {
				t.Errorf("workers=%d job %d: fork differs from the one-worker run", workers, i)
			}
		}
		if st.WarmupFamilies != 2 || st.WarmupForks != int64(len(jobs)) || st.Simulated != int64(len(jobs)) {
			t.Errorf("workers=%d: families=%d forks=%d simulated=%d, want 2/%d/%d",
				workers, st.WarmupFamilies, st.WarmupForks, st.Simulated, len(jobs), len(jobs))
		}
		want := 2 + len(jobs) // one warmup per family, one job per fork
		if n := log.count(telemetry.EvJobStart); n != want {
			t.Errorf("workers=%d: %d job_start events, want %d", workers, n, want)
		}
		if n := log.count(telemetry.EvJobDone); n != want {
			t.Errorf("workers=%d: %d job_done events, want %d", workers, n, want)
		}
		if n := log.count(telemetry.EvWarmupFork); n != 2 {
			t.Errorf("workers=%d: %d warmup_fork events, want 2", workers, n)
		}
	}
}

// TestForkUnitBudget: each fork runs under its own JobTimeout. A fork
// that cannot meet its budget fails only its own cell, and the
// family's other cells equal an unbudgeted run.
func TestForkUnitBudget(t *testing.T) {
	jobs := forkJobs()
	want, _ := runForks(t, Options{Workers: 2}, jobs, nil)

	const slow = 1 // the SEEC family's 0.10 fork
	outs, _ := runForks(t, Options{Workers: 2, JobTimeout: time.Second}, jobs, func(p *Planner) {
		p.runFork = func(ctx context.Context, base seec.Config, snap []byte, fk seec.Fork) (seec.Result, error) {
			if base.Scheme == seec.SchemeSEEC && fk.Rate == jobs[slow].exec().InjectionRate {
				<-ctx.Done() // a fork its budget cannot cover
				return seec.Result{}, ctx.Err()
			}
			return seec.RunFork(ctx, base, snap, fk)
		}
	})
	for i, o := range outs {
		if i == slow {
			if !o.Done || !errors.Is(o.Err, context.DeadlineExceeded) || o.Elapsed < time.Second {
				t.Errorf("slow fork: done=%v err=%v elapsed=%v, want its own deadline", o.Done, o.Err, o.Elapsed)
			}
			continue
		}
		if !reflect.DeepEqual(o, want[i]) {
			t.Errorf("job %d: a sibling's timeout changed its outcome: %+v", i, o)
		}
	}
}

// TestForkUnitWarmupFailure: a warmup that fails or panics fails its
// own family's cells with its error, the other family's cells are
// untouched, and no fork is left waiting.
func TestForkUnitWarmupFailure(t *testing.T) {
	jobs := forkJobs()
	want, _ := runForks(t, Options{Workers: 2}, jobs, nil)
	for _, tc := range []struct {
		name  string
		fail  func() ([]byte, error)
		cause string
	}{
		{"error", func() ([]byte, error) { return nil, errors.New("warmup broke") }, "warmup broke"},
		{"panic", func() ([]byte, error) { panic("warmup exploded") }, "warmup panic: warmup exploded"},
	} {
		failSEEC := func(p *Planner) {
			p.warmCheckpoint = func(ctx context.Context, base seec.Config) ([]byte, error) {
				if base.Scheme == seec.SchemeSEEC {
					return tc.fail()
				}
				return seec.WarmCheckpoint(ctx, base)
			}
		}
		for _, workers := range []int{1, 4} {
			outs, st := runForks(t, Options{Workers: workers}, jobs, failSEEC)
			for i, o := range outs {
				if jobs[i].Cfg.Scheme == seec.SchemeSEEC {
					if !o.Done || o.Err == nil || o.Err.Error() != tc.cause {
						t.Errorf("%s, workers=%d: job %d: done=%v err=%v, want %q",
							tc.name, workers, i, o.Done, o.Err, tc.cause)
					}
					continue
				}
				if !reflect.DeepEqual(o, want[i]) {
					t.Errorf("%s, workers=%d: job %d of the healthy family changed: %+v", tc.name, workers, i, o)
				}
			}
			if st.WarmupFamilies != 1 || st.Simulated != 3 {
				t.Errorf("%s, workers=%d: families=%d simulated=%d, want 1/3",
					tc.name, workers, st.WarmupFamilies, st.Simulated)
			}
		}
	}
}

// TestForkUnitFallback: a warm state that cannot checkpoint is no
// failure. Each fork then runs its member independently, and the
// result is the independent run's, cached under the independent key.
func TestForkUnitFallback(t *testing.T) {
	jobs := forkJobs()[:3]
	var p *Planner
	outs, st := runForks(t, Options{Workers: 2}, jobs, func(q *Planner) {
		p = q
		q.warmCheckpoint = func(context.Context, seec.Config) ([]byte, error) {
			return nil, checkpoint.ErrUnsupported
		}
	})
	for i, o := range outs {
		want, err := seec.RunSyntheticCtx(context.Background(), jobs[i].exec())
		if err != nil {
			t.Fatal(err)
		}
		if !o.Done || o.Err != nil || !reflect.DeepEqual(o.Result, want) {
			t.Errorf("job %d: done=%v err=%v, want the independent run", i, o.Done, o.Err)
		}
		if _, ok := p.lookup(Key(jobs[i])); !ok {
			t.Errorf("job %d: not cached under its independent key", i)
		}
	}
	if st.WarmupFallbacks != 1 || st.WarmupFamilies != 0 || st.Simulated != 3 {
		t.Errorf("fallbacks=%d families=%d simulated=%d, want 1/0/3",
			st.WarmupFallbacks, st.WarmupFamilies, st.Simulated)
	}
}

// TestMapOutcomes: Map reports every call's outcome (Done, its error,
// with a panic recovered into one, and a failed call's wall time) and
// puts one job_start and one terminal job event per call on the bus.
func TestMapOutcomes(t *testing.T) {
	log := &eventLog{}
	p, err := New(Options{Workers: 2, Bus: telemetry.NewBus(log)})
	if err != nil {
		t.Fatal(err)
	}
	const n, broke, exploded = 6, 1, 4
	outs := p.Map(context.Background(), n, func(ctx context.Context, i int) error {
		switch i {
		case broke:
			time.Sleep(5 * time.Millisecond)
			return errors.New("call broke")
		case exploded:
			panic("call exploded")
		}
		return nil
	})
	if len(outs) != n {
		t.Fatalf("%d outcomes for %d calls", len(outs), n)
	}
	for i, o := range outs {
		switch i {
		case broke:
			if !o.Done || o.Err == nil || o.Err.Error() != "call broke" || o.Elapsed < 5*time.Millisecond {
				t.Errorf("failed call: done=%v err=%v elapsed=%v", o.Done, o.Err, o.Elapsed)
			}
		case exploded:
			if !o.Done || o.Err == nil || !strings.Contains(o.Err.Error(), "call exploded") || o.Elapsed <= 0 {
				t.Errorf("panicking call: done=%v err=%v elapsed=%v", o.Done, o.Err, o.Elapsed)
			}
		default:
			if !o.Done || o.Err != nil || o.Elapsed != 0 {
				t.Errorf("call %d: done=%v err=%v elapsed=%v, want done without error", i, o.Done, o.Err, o.Elapsed)
			}
		}
	}
	for _, c := range []struct {
		kind telemetry.Kind
		want int
	}{
		{telemetry.EvJobStart, n},
		{telemetry.EvJobDone, n - 2},
		{telemetry.EvJobFail, 1},
		{telemetry.EvJobPanic, 1},
	} {
		if got := log.count(c.kind); got != c.want {
			t.Errorf("%d %v events, want %d", got, c.kind, c.want)
		}
	}
}

// TestMapProgress: Map drives the planner's Progress hook to (n, n),
// also when every call fails (the default drain mode).
func TestMapProgress(t *testing.T) {
	for _, fail := range []bool{false, true} {
		var mu sync.Mutex
		var done, total int
		p, err := New(Options{Workers: 2, Progress: func(d, n int) {
			mu.Lock()
			done, total = d, n
			mu.Unlock()
		}})
		if err != nil {
			t.Fatal(err)
		}
		const n = 5
		p.Map(context.Background(), n, func(context.Context, int) error {
			if fail {
				return errors.New("fails")
			}
			return nil
		})
		if done != n || total != n {
			t.Fatalf("fail=%v: last progress report %d/%d, want %d/%d", fail, done, total, n, n)
		}
	}
}

// TestMapBreaker: the MaxFailures-th failed call trips the breaker, and
// the calls it cancelled stay Done=false.
func TestMapBreaker(t *testing.T) {
	p, err := New(Options{Workers: 1, MaxFailures: 2})
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	outs := p.Map(context.Background(), 10, func(context.Context, int) error {
		ran++
		return errors.New("always fails")
	})
	if ran != 2 {
		t.Fatalf("%d calls ran, want the breaker to stop at 2", ran)
	}
	for i, o := range outs {
		if ran := i < 2; o.Done != ran || (o.Err != nil) != ran {
			t.Errorf("call %d: done=%v err=%v, want done=%v", i, o.Done, o.Err, ran)
		}
	}
}

// TestFresh: a planner that reuses or forks hands instrumented runs a
// store-less NoReuse planner on its own pool; a planner that does
// neither is its own Fresh planner.
func TestFresh(t *testing.T) {
	bus := telemetry.NewBus()
	o := Options{
		Workers: 3, JobTimeout: time.Second, MaxFailures: 2, WarmupShare: true,
		CacheDir: t.TempDir(), Bus: bus, Progress: func(int, int) {}, ProgressEvery: time.Minute,
	}
	p, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	q := p.Fresh()
	if q == p || q.store != nil || !q.opts.NoReuse || q.opts.WarmupShare || q.opts.CacheDir != "" {
		t.Fatalf("Fresh of a sharing planner still reuses, forks or stores: %+v", q.opts)
	}
	if q.opts.Workers != o.Workers || q.opts.JobTimeout != o.JobTimeout || q.opts.MaxFailures != o.MaxFailures ||
		q.opts.Bus != bus || q.opts.Progress == nil || q.opts.ProgressEvery != o.ProgressEvery {
		t.Errorf("Fresh dropped a pool setting: %+v", q.opts)
	}
	if q.Fresh() != q {
		t.Error("a fresh planner's Fresh is not itself")
	}
	for _, o := range []Options{{NoReuse: true}, {NoReuse: true, Workers: 2, JobTimeout: time.Second}} {
		r, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		if r.Fresh() != r {
			t.Errorf("Fresh of %+v is a new planner, want itself", o)
		}
	}
	r, err := New(Options{NoReuse: true, WarmupShare: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Fresh() == r {
		t.Error("a forking planner is its own Fresh planner")
	}
}
