package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"seec"
	"seec/internal/telemetry"
)

// fakeRun is a deterministic stand-in simulation: the result is a pure
// function of the config, so byte-identity checks work without paying
// for real simulations in engine-mechanics tests.
func fakeRun(ctx context.Context, cfg seec.Config) (seec.Result, error) {
	if err := ctx.Err(); err != nil {
		return seec.Result{}, err
	}
	return seec.Result{
		Config:          cfg,
		AvgLatency:      cfg.InjectionRate * 100,
		InjectedPackets: int64(cfg.Seed),
	}, nil
}

// newServer builds a server on a temp dir with fakeRun defaults and
// closes it at test end.
func newServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.RunSynthetic == nil {
		opts.RunSynthetic = fakeRun
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch st.State {
		case JobDone, JobFailed, JobCancelled:
			return st
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := s.Job(id)
	t.Fatalf("job %s stuck in %s: %+v", id, st.State, st)
	return JobStatus{}
}

// waitState polls until the job reaches the given state.
func waitState(t *testing.T, s *Server, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := s.Job(id); ok && st.State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := s.Job(id)
	t.Fatalf("job %s never reached %s (now %s)", id, want, st.State)
}

func TestSubmitRunFetch(t *testing.T) {
	s := newServer(t, Options{Workers: 2})
	st, err := s.Submit("", []byte(`{"rates":[0.02,0.04],"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued || len(st.Runs) != 2 || st.Tenant != "default" {
		t.Fatalf("ack status %+v", st)
	}
	done := waitJob(t, s, st.ID)
	if done.State != JobDone {
		t.Fatalf("job finished %s: %s", done.State, done.Error)
	}
	for i, r := range done.Runs {
		if r.State != RunDone || r.Cached {
			t.Fatalf("run %d: %+v", i, r)
		}
		payload, ok := s.Result(r.Key)
		if !ok {
			t.Fatalf("run %d result not cached", i)
		}
		// The cached bytes are exactly the canonical encoding of what
		// the simulation seam returned for this run's config.
		sp, _ := DecodeJobSpec([]byte(`{"rates":[0.02,0.04],"seed":3}`))
		want, _ := fakeRun(context.Background(), sp.Configs()[i])
		if !bytes.Equal(payload, EncodeResult(want)) {
			t.Fatalf("run %d cached bytes diverge:\n got %s\nwant %s", i, payload, EncodeResult(want))
		}
	}

	// Resubmitting the identical spec must be served entirely from the
	// cache: zero new simulations.
	sims := s.Stats().Simulations
	st2, err := s.Submit("", []byte(`{"rates":[0.02,0.04],"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	done2 := waitJob(t, s, st2.ID)
	if done2.State != JobDone {
		t.Fatalf("resubmit finished %s", done2.State)
	}
	for i, r := range done2.Runs {
		if !r.Cached {
			t.Fatalf("resubmitted run %d not served from cache", i)
		}
	}
	if got := s.Stats().Simulations; got != sims {
		t.Fatalf("resubmit simulated: %d -> %d", sims, got)
	}
	if s.Stats().CacheHits < 2 {
		t.Fatalf("cache hits %d", s.Stats().CacheHits)
	}
}

// TestAbortReplayResume: kill the server (no graceful drain, journal
// not synced beyond the ack barrier) mid-run; a reopened server on the
// same directory must re-enqueue the acknowledged job and complete it
// with the same bytes an uninterrupted server produces.
func TestAbortReplayResume(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 8)
	blockRun := func(ctx context.Context, cfg seec.Config) (seec.Result, error) {
		started <- struct{}{}
		<-ctx.Done() // "long" simulation: runs until the crash
		return seec.Result{}, ctx.Err()
	}
	s1, err := New(Options{Dir: dir, Workers: 1, RunSynthetic: blockRun})
	if err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"rates":[0.02,0.04],"seed":9}`)
	st, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is inside the run: crash now
	s1.Abort()

	s2 := newServer(t, Options{Dir: dir, Workers: 1})
	re, ok := s2.Job(st.ID)
	if !ok {
		t.Fatal("acknowledged job lost across crash")
	}
	if !re.Resumed {
		t.Fatal("replayed job not marked resumed")
	}
	if s2.Stats().WALJobsResumed != 1 || s2.Stats().WALRecordsReplay == 0 {
		t.Fatalf("replay stats %+v", s2.Stats())
	}
	done := waitJob(t, s2, st.ID)
	if done.State != JobDone {
		t.Fatalf("resumed job finished %s: %s", done.State, done.Error)
	}
	// Byte-identity with an uninterrupted execution.
	sp, _ := DecodeJobSpec(spec)
	for i, r := range done.Runs {
		payload, ok := s2.Result(r.Key)
		if !ok {
			t.Fatalf("run %d result missing after resume", i)
		}
		want, _ := fakeRun(context.Background(), sp.Configs()[i])
		if !bytes.Equal(payload, EncodeResult(want)) {
			t.Fatalf("resumed run %d bytes diverge", i)
		}
	}
}

// TestRunDoneSurvivesRestart: runs completed before a crash are not
// re-simulated after it — the journal's run_done records plus the cache
// make replay free.
func TestRunDoneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{Dir: dir, Workers: 1, RunSynthetic: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit("", []byte(`{"rate":0.05}`))
	if err != nil {
		t.Fatal(err)
	}
	done := waitJobPlain(t, s1, st.ID)
	if done.State != JobDone {
		t.Fatalf("job %s", done.State)
	}
	s1.Abort()

	failRun := func(ctx context.Context, cfg seec.Config) (seec.Result, error) {
		return seec.Result{}, errors.New("must not be called: job was done")
	}
	s2 := newServer(t, Options{Dir: dir, Workers: 1, RunSynthetic: failRun})
	re, ok := s2.Job(st.ID)
	if !ok || re.State != JobDone {
		t.Fatalf("done job after restart: ok=%v %+v", ok, re)
	}
	if s2.Stats().WALJobsResumed != 0 {
		t.Fatal("terminal job re-enqueued")
	}
}

// waitJobPlain is waitJob for servers not built via newServer.
func waitJobPlain(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, _ := s.Job(id)
		switch st.State {
		case JobDone, JobFailed, JobCancelled:
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("job stuck")
	return JobStatus{}
}

func TestRateLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newServer(t, Options{SubmitRate: 1, SubmitBurst: 1, Now: func() time.Time { return now }})
	if _, err := s.Submit("alice", []byte(`{"rate":0.02}`)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit("alice", []byte(`{"rate":0.04}`))
	var rl *RateLimitError
	if !errors.As(err, &rl) || rl.Reason != "rate" || rl.RetryAfter <= 0 {
		t.Fatalf("want rate-limit error, got %v", err)
	}
	// Another tenant has its own bucket.
	if _, err := s.Submit("bob", []byte(`{"rate":0.04}`)); err != nil {
		t.Fatalf("bob limited by alice's bucket: %v", err)
	}
	// Tokens refill with the clock.
	now = now.Add(1100 * time.Millisecond)
	if _, err := s.Submit("alice", []byte(`{"rate":0.04}`)); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

func TestTenantBudget(t *testing.T) {
	release := make(chan struct{})
	slowRun := func(ctx context.Context, cfg seec.Config) (seec.Result, error) {
		select {
		case <-release:
			return fakeRun(ctx, cfg)
		case <-ctx.Done():
			return seec.Result{}, ctx.Err()
		}
	}
	s := newServer(t, Options{Workers: 1, TenantBudget: 2, RunSynthetic: slowRun})
	st, err := s.Submit("alice", []byte(`{"rates":[0.02,0.04]}`)) // 2 outstanding runs
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit("alice", []byte(`{"rate":0.06}`))
	var rl *RateLimitError
	if !errors.As(err, &rl) || rl.Reason != "budget" {
		t.Fatalf("want budget error, got %v", err)
	}
	bobJob, err := s.Submit("bob", []byte(`{"rate":0.06}`))
	if err != nil {
		t.Fatalf("bob hit alice's budget: %v", err)
	}
	close(release)
	waitJob(t, s, st.ID)
	// Budget released on completion.
	st2, err := s.Submit("alice", []byte(`{"rate":0.08}`))
	if err != nil {
		t.Fatalf("budget not released: %v", err)
	}
	waitJob(t, s, bobJob.ID)
	waitJob(t, s, st2.ID)
	// Tenant names are client-supplied, so the accounting map must not
	// keep residue for tenants with nothing outstanding.
	s.mu.Lock()
	n := len(s.outstanding)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("outstanding map kept %d idle tenant entries", n)
	}
}

// TestRejectedSubmitKeepsToken: budget and queue-depth refusals happen
// before the token bucket is touched, so a tenant backing off a full
// budget does not also burn its rate allowance on every retry.
func TestRejectedSubmitKeepsToken(t *testing.T) {
	release := make(chan struct{})
	slowRun := func(ctx context.Context, cfg seec.Config) (seec.Result, error) {
		select {
		case <-release:
			return fakeRun(ctx, cfg)
		case <-ctx.Done():
			return seec.Result{}, ctx.Err()
		}
	}
	now := time.Unix(1000, 0)
	// Frozen clock: tokens never refill, so any burn is permanent.
	s := newServer(t, Options{Workers: 1, TenantBudget: 1, SubmitRate: 0.001, SubmitBurst: 2,
		Now: func() time.Time { return now }, RunSynthetic: slowRun})
	st, err := s.Submit("alice", []byte(`{"rate":0.02}`)) // 1 token spent, budget full
	if err != nil {
		t.Fatal(err)
	}
	var rl *RateLimitError
	for i := 0; i < 5; i++ {
		_, err := s.Submit("alice", []byte(`{"rate":0.04}`))
		if !errors.As(err, &rl) || rl.Reason != "budget" {
			t.Fatalf("retry %d: want budget refusal, got %v", i, err)
		}
	}
	close(release)
	waitJob(t, s, st.ID)
	// The refusals above must not have consumed the second burst token.
	if _, err := s.Submit("alice", []byte(`{"rate":0.06}`)); err != nil {
		t.Fatalf("rejections burned the remaining token: %v", err)
	}
}

// TestTenantBucketEviction: the per-tenant bucket map is keyed by an
// arbitrary client-supplied header, so it is capped — buckets that have
// refilled to the full burst carry no state and are evicted (lossless:
// a recreated bucket starts at burst).
func TestTenantBucketEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newServer(t, Options{SubmitRate: 1, SubmitBurst: 1, Now: func() time.Time { return now }})
	s.mu.Lock()
	for i := 0; i < maxTenantBuckets+64; i++ {
		// Advance past the refill horizon each step, so every earlier
		// bucket is back at full burst and eligible for eviction.
		now = now.Add(2 * time.Second)
		if _, ok := s.takeToken(fmt.Sprintf("tenant-%d", i)); !ok {
			s.mu.Unlock()
			t.Fatalf("fresh tenant %d denied a token", i)
		}
	}
	n := len(s.buckets)
	s.mu.Unlock()
	if n > maxTenantBuckets {
		t.Fatalf("bucket map grew to %d entries, cap %d", n, maxTenantBuckets)
	}
}

func TestQueueFullAndCancel(t *testing.T) {
	release := make(chan struct{})
	slowRun := func(ctx context.Context, cfg seec.Config) (seec.Result, error) {
		select {
		case <-release:
			return fakeRun(ctx, cfg)
		case <-ctx.Done():
			return seec.Result{}, ctx.Err()
		}
	}
	s := newServer(t, Options{Workers: 1, QueueDepth: 1, RunSynthetic: slowRun})
	a, err := s.Submit("", []byte(`{"rate":0.02}`))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, a.ID, JobRunning) // worker took A; queue empty
	b, err := s.Submit("", []byte(`{"rate":0.04}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("", []byte(`{"rate":0.06}`)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	// Cancel the queued job: terminal immediately, even though its
	// channel slot drains only when a worker gets to it.
	if !s.Cancel(b.ID) {
		t.Fatal("cancel refused")
	}
	if st, _ := s.Job(b.ID); st.State != JobCancelled {
		t.Fatalf("cancelled job state %s", st.State)
	}
	close(release)
	if st := waitJob(t, s, a.ID); st.State != JobDone {
		t.Fatalf("A finished %s", st.State)
	}
	// B must stay cancelled even though it was still in the channel.
	if st, _ := s.Job(b.ID); st.State != JobCancelled {
		t.Fatalf("B resurrected: %s", st.State)
	}
	if s.Cancel(b.ID) {
		t.Fatal("cancel of terminal job must report false")
	}
	// Once the worker drained the cancelled job the queue is empty and
	// submissions flow again.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().QueueDepth > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit("", []byte(`{"rate":0.06}`)); err != nil {
		t.Fatalf("queue never recovered: %v", err)
	}
}

func TestBreaker(t *testing.T) {
	boom := func(ctx context.Context, cfg seec.Config) (seec.Result, error) {
		return seec.Result{}, fmt.Errorf("solver exploded at rate %v", cfg.InjectionRate)
	}
	s := newServer(t, Options{Workers: 1, MaxFailures: 2, RunSynthetic: boom})
	st, err := s.Submit("", []byte(`{"rates":[0.02,0.04,0.06,0.08]}`))
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, s, st.ID)
	if done.State != JobFailed {
		t.Fatalf("job %s", done.State)
	}
	states := []string{done.Runs[0].State, done.Runs[1].State, done.Runs[2].State, done.Runs[3].State}
	want := []string{RunFailed, RunFailed, RunSkipped, RunSkipped}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("run states %v, want %v", states, want)
		}
	}
	if s.Stats().JobsFailed != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}
}

// TestRealSimulation drives one small real simulation through the
// gateway and checks the cached bytes equal a direct library call with
// the same semantics — the gateway adds no observable simulation state.
func TestRealSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	bus := telemetry.NewBus(telemetry.NewAggregator())
	s := newServer(t, Options{Workers: 1, Bus: bus, CheckpointEvery: 500,
		RunSynthetic: seec.RunSyntheticCtx})
	spec := []byte(`{"rows":4,"cols":4,"warmup":200,"sim_cycles":2000,"rate":0.05,"seed":11}`)
	st, err := s.Submit("", spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, s, st.ID)
	if done.State != JobDone {
		t.Fatalf("job %s: %s", done.State, done.Error)
	}
	payload, ok := s.Result(done.Runs[0].Key)
	if !ok {
		t.Fatal("result not cached")
	}
	sp, _ := DecodeJobSpec(spec)
	want, err := seec.RunSyntheticCtx(context.Background(), sp.Configs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, EncodeResult(want)) {
		t.Fatalf("gateway result diverges from direct run:\n got %s\nwant %s", payload, EncodeResult(want))
	}
}

func TestDrainingRefusesSubmit(t *testing.T) {
	s := newServer(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("", []byte(`{"rate":0.02}`)); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining, got %v", err)
	}
}
