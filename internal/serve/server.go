package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"seec"
	"seec/internal/checkpoint"
	"seec/internal/telemetry"
)

// Gateway defaults.
const (
	DefaultQueueDepth      = 64
	DefaultCheckpointEvery = 2048
)

// Typed degradation errors. The HTTP layer maps them to status codes;
// in-process callers errors.Is/As them.
var (
	// ErrQueueFull: the bounded job queue is at capacity (503).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining: the server is shutting down and not accepting work
	// (503).
	ErrDraining = errors.New("serve: draining")
	// ErrUnavailable: the journal can no longer acknowledge writes
	// (disk full or failing); submissions are refused rather than
	// accepted un-durably (503).
	ErrUnavailable = errors.New("serve: journal unavailable, submissions disabled")
	// ErrNotFound: no such job or result.
	ErrNotFound = errors.New("serve: not found")
)

// RateLimitError reports a denied submission with the time after which
// a retry can succeed (429 + Retry-After).
type RateLimitError struct {
	RetryAfter time.Duration
	Reason     string // "rate" or "budget"
}

// Error implements error.
func (e *RateLimitError) Error() string {
	return fmt.Sprintf("serve: %s limit exceeded, retry after %s", e.Reason, e.RetryAfter)
}

// JobState is a job's lifecycle state.
type JobState string

// Job lifecycle states. A queued job with Resumed set was recovered
// from the journal on boot.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Run lifecycle states (RunStatus.State).
const (
	RunPending = "pending"
	RunRunning = "running"
	RunDone    = "done"
	RunFailed  = "failed"
	RunTimeout = "timeout"
	RunSkipped = "skipped" // breaker tripped before this run started
)

// RunStatus is the public view of one run within a job.
type RunStatus struct {
	Rate   float64 `json:"rate"`
	Seed   uint64  `json:"seed"`
	Key    string  `json:"key"`
	State  string  `json:"state"`
	Cached bool    `json:"cached,omitempty"`
	Err    string  `json:"err,omitempty"`
}

// JobStatus is the public view of a job.
type JobStatus struct {
	ID      string      `json:"id"`
	Tenant  string      `json:"tenant"`
	State   JobState    `json:"state"`
	Spec    JobSpec     `json:"spec"`
	Runs    []RunStatus `json:"runs"`
	Error   string      `json:"error,omitempty"`
	Resumed bool        `json:"resumed,omitempty"`
}

// Stats is the gateway's own counter snapshot (also emitted on the
// telemetry bus for /status and /metrics).
type Stats struct {
	QueueDepth        int   `json:"queue_depth"`
	JobsAccepted      int64 `json:"jobs_accepted"`
	JobsDone          int64 `json:"jobs_done"`
	JobsFailed        int64 `json:"jobs_failed"`
	CacheHits         int64 `json:"cache_hits"`
	CacheMisses       int64 `json:"cache_misses"`
	CacheQuarantines  int64 `json:"cache_quarantines"`
	Simulations       int64 `json:"simulations"`
	WALRecordsReplay  int64 `json:"wal_records_replayed"`
	WALJobsResumed    int64 `json:"wal_jobs_resumed"`
	WALRecordsDropped int64 `json:"wal_records_dropped"`
}

// Options configures a Server. The zero value of every field selects a
// sensible default; Dir is required.
type Options struct {
	// Dir is the durable state root: Dir/wal.log, Dir/results/...,
	// Dir/spool/... (checkpoints of in-flight runs).
	Dir string
	// Workers is the supervised worker-pool size (default
	// GOMAXPROCS, capped at 4 — simulation is CPU-bound).
	Workers int
	// QueueDepth bounds queued-but-not-running jobs; submissions
	// beyond it get ErrQueueFull (default DefaultQueueDepth).
	QueueDepth int
	// SubmitRate and SubmitBurst are the per-tenant token bucket:
	// sustained submissions/sec and burst size. SubmitRate 0 disables
	// rate limiting.
	SubmitRate  float64
	SubmitBurst int
	// TenantBudget bounds a tenant's outstanding (queued + running)
	// runs — the sweep budget. 0 disables.
	TenantBudget int
	// RunTimeout is the per-run deadline (0 = unbounded).
	RunTimeout time.Duration
	// MaxFailures is the per-job breaker: the job fails once this many
	// runs have failed (0 selects 1 — fail on the first failed run).
	MaxFailures int
	// CheckpointEvery is the spool checkpoint period in cycles
	// (default DefaultCheckpointEvery). Bounds how much progress a
	// crash can lose per in-flight run.
	CheckpointEvery int64
	// Bus receives gateway telemetry (nil = none).
	Bus *telemetry.Bus
	// FS is the durability seam (default OSFS). Checkpoint spool files
	// do not go through it — see FS.
	FS FS
	// Now is the clock seam for rate limiting (default time.Now).
	Now func() time.Time
	// RunSynthetic is the simulation seam (default
	// seec.RunSyntheticCtx).
	RunSynthetic func(ctx context.Context, cfg seec.Config) (seec.Result, error)
}

// job is the server-side job state. Public views are deep-copied under
// the server mutex.
type job struct {
	id        string
	tenant    string
	spec      *JobSpec
	cfgs      []seec.Config
	state     JobState
	runs      []RunStatus
	errMsg    string
	resumed   bool
	cancelled bool
	cancelRun context.CancelFunc // non-nil while running
}

// Server is the gateway engine: the durable queue, the worker pool,
// the result store and the degradation machinery. Create with New,
// stop with Close (graceful) — or abandon after a simulated crash in
// tests; every acknowledged state change is already on disk.
type Server struct {
	opts  Options
	fs    FS
	now   func() time.Time
	run   func(ctx context.Context, cfg seec.Config) (seec.Result, error)
	wal   *WAL
	store *Store
	bus   *telemetry.Bus

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu          sync.Mutex
	jobs        map[string]*job
	order       []string
	queue       chan *job
	nextJob     int64
	draining    bool
	buckets     map[string]*bucket
	outstanding map[string]int // tenant -> queued+running runs
	stats       Stats
}

// bucket is one tenant's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// New opens the durable state under opts.Dir, replays the journal,
// re-enqueues every job that was acknowledged but not finished, and
// starts the worker pool.
func New(opts Options) (*Server, error) {
	if opts.Dir == "" {
		return nil, errors.New("serve: Options.Dir is required")
	}
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.RunSynthetic == nil {
		opts.RunSynthetic = seec.RunSyntheticCtx
	}
	if opts.Workers <= 0 {
		opts.Workers = min(runtime.GOMAXPROCS(0), 4)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.MaxFailures <= 0 {
		opts.MaxFailures = 1
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	if opts.SubmitBurst <= 0 {
		opts.SubmitBurst = 4
	}
	fs := opts.FS
	for _, d := range []string{opts.Dir, filepath.Join(opts.Dir, "spool")} {
		if err := fs.MkdirAll(d); err != nil {
			return nil, err
		}
	}
	store, err := NewStore(fs, filepath.Join(opts.Dir, "results"))
	if err != nil {
		return nil, err
	}
	wal, rep, err := OpenWAL(fs, filepath.Join(opts.Dir, "wal.log"))
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts: opts, fs: fs, now: opts.Now, run: opts.RunSynthetic,
		wal: wal, store: store, bus: opts.Bus,
		jobs:        make(map[string]*job),
		nextJob:     1,
		buckets:     make(map[string]*bucket),
		outstanding: make(map[string]int),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	resumable := s.fold(rep)
	// The channel must hold every replayed job plus a full client
	// queue; sends below (and in Submit, which checks QueueDepth under
	// the mutex first) then never block.
	s.queue = make(chan *job, opts.QueueDepth+len(resumable))
	s.stats.WALRecordsReplay = int64(len(rep.Records))
	s.stats.WALJobsResumed = int64(len(resumable))
	s.stats.WALRecordsDropped = int64(rep.Dropped)
	for _, j := range resumable {
		s.enqueueLocked(j)
	}
	s.bus.Emit(telemetry.Event{Kind: telemetry.EvWALReplay, Job: -1,
		Total: int64(len(rep.Records)), Attempt: int32(len(resumable)), InFlight: int64(rep.Dropped)})
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// fold rebuilds the job table from a journal replay and returns the
// jobs to re-enqueue, in original submission order.
func (s *Server) fold(rep Replay) []*job {
	var resumable []*job
	for _, rec := range rep.Records {
		switch rec.Kind {
		case RecSubmit:
			if rec.Spec == nil {
				continue // tolerated: old or hand-damaged journal
			}
			// Re-validate: limits may have tightened across versions;
			// a now-invalid spec is dropped, not a crash loop.
			if err := rec.Spec.validate(); err != nil {
				continue
			}
			j := s.buildJob(rec.ID, rec.Tenant, rec.Spec)
			j.resumed = true
			s.jobs[rec.ID] = j
			s.order = append(s.order, rec.ID)
			if num, ok := strings.CutPrefix(rec.ID, "j"); ok {
				if n, err := strconv.ParseInt(num, 10, 64); err == nil && n >= s.nextJob {
					s.nextJob = n + 1
				}
			}
		case RecRunDone:
			if j := s.jobs[rec.ID]; j != nil && rec.Run < len(j.runs) {
				j.runs[rec.Run].State = RunDone
				j.runs[rec.Run].Cached = rec.Cached
			}
		case RecJobDone:
			if j := s.jobs[rec.ID]; j != nil {
				j.state = JobDone
			}
		case RecJobFail:
			if j := s.jobs[rec.ID]; j != nil {
				j.state = JobFailed
				j.errMsg = rec.Err
			}
		case RecCancel:
			if j := s.jobs[rec.ID]; j != nil {
				j.state = JobCancelled
				j.cancelled = true
			}
		case RecSuspend:
			// Observability only: the previous process drained
			// gracefully. The job is resumable either way.
		}
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state == JobQueued {
			resumable = append(resumable, j)
		}
	}
	return resumable
}

// buildJob constructs the in-memory job for a validated spec.
func (s *Server) buildJob(id, tenant string, sp *JobSpec) *job {
	cfgs := sp.Configs()
	runs := make([]RunStatus, len(cfgs))
	for i, c := range cfgs {
		runs[i] = RunStatus{Rate: c.InjectionRate, Seed: c.Seed, Key: CacheKey(c), State: RunPending}
	}
	return &job{id: id, tenant: tenant, spec: sp, cfgs: cfgs, state: JobQueued, runs: runs}
}

// enqueueLocked pushes j and maintains depth accounting + telemetry.
// Caller holds s.mu or is inside New before workers start.
func (s *Server) enqueueLocked(j *job) {
	s.stats.QueueDepth++
	if n := pendingRuns(j); n > 0 {
		s.outstanding[j.tenant] += n
	}
	s.queue <- j
	s.bus.Emit(telemetry.Event{Kind: telemetry.EvJobEnqueue, Job: -1, Total: int64(s.stats.QueueDepth)})
}

// releaseRunLocked returns one outstanding-run unit of tenant's budget,
// deleting the map entry at zero — tenant names are client-supplied,
// so idle tenants must not leave permanent residue. Caller holds s.mu.
func (s *Server) releaseRunLocked(tenant string) {
	if n := s.outstanding[tenant] - 1; n > 0 {
		s.outstanding[tenant] = n
	} else {
		delete(s.outstanding, tenant)
	}
}

// pendingRuns counts runs not yet completed.
func pendingRuns(j *job) int {
	n := 0
	for _, r := range j.runs {
		if r.State != RunDone {
			n++
		}
	}
	return n
}

// Submit decodes, validates, journals and enqueues a job. tenant may
// be "" (falls back to the spec's tenant field, then "default"). The
// returned status is the acknowledged state: its journal record is on
// stable storage.
func (s *Server) Submit(tenant string, raw []byte) (JobStatus, error) {
	sp, err := DecodeJobSpec(raw)
	if err != nil {
		return JobStatus{}, err
	}
	if tenant == "" {
		tenant = sp.Tenant
	}
	if tenant == "" {
		tenant = "default"
	}
	sp.Tenant = tenant
	nRuns := len(sp.rates())

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	if s.wal.Err() != nil {
		return JobStatus{}, fmt.Errorf("%w: %v", ErrUnavailable, s.wal.Err())
	}
	// Budget and queue checks come BEFORE the token bucket: a tenant
	// backing off a full queue or an exhausted budget must not also
	// burn rate tokens on the rejected attempts, compounding the
	// throttling once capacity frees up.
	if b := s.opts.TenantBudget; b > 0 && s.outstanding[tenant]+nRuns > b {
		return JobStatus{}, &RateLimitError{RetryAfter: time.Second, Reason: "budget"}
	}
	if s.stats.QueueDepth >= s.opts.QueueDepth {
		return JobStatus{}, ErrQueueFull
	}
	if wait, ok := s.takeToken(tenant); !ok {
		return JobStatus{}, &RateLimitError{RetryAfter: wait, Reason: "rate"}
	}
	id := fmt.Sprintf("j%d", s.nextJob)
	// The acknowledgement barrier: the submit record reaches stable
	// storage before the client hears 202. Everything after a
	// successful synced append is recoverable by replay.
	if _, err := s.wal.Append(Record{Kind: RecSubmit, ID: id, Tenant: tenant, Spec: sp}, true); err != nil {
		return JobStatus{}, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	s.nextJob++
	j := s.buildJob(id, tenant, sp)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.stats.JobsAccepted++
	s.enqueueLocked(j)
	return s.viewLocked(j), nil
}

// maxTenantBuckets caps the token-bucket map. Tenant names are
// client-supplied, so the map is a memory-growth vector; when it hits
// the cap, every bucket whose tokens have refilled back to the full
// burst is evicted — lossless, since a recreated bucket starts at
// burst. Buckets that survive an eviction pass belong to tenants that
// consumed a token within the last burst/rate seconds, so sustained
// growth past the cap requires genuine concurrent traffic, not just
// a stream of fresh header values.
const maxTenantBuckets = 1024

// takeToken implements the per-tenant token bucket under s.mu.
func (s *Server) takeToken(tenant string) (time.Duration, bool) {
	rate := s.opts.SubmitRate
	if rate <= 0 {
		return 0, true
	}
	now := s.now()
	b := s.buckets[tenant]
	if b == nil {
		if len(s.buckets) >= maxTenantBuckets {
			s.evictFullBuckets(now)
		}
		b = &bucket{tokens: float64(s.opts.SubmitBurst), last: now}
		s.buckets[tenant] = b
	}
	b.tokens += rate * now.Sub(b.last).Seconds()
	if max := float64(s.opts.SubmitBurst); b.tokens > max {
		b.tokens = max
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	return time.Duration((1 - b.tokens) / rate * float64(time.Second)), false
}

// evictFullBuckets drops every bucket that has (or by now would have)
// refilled to the full burst. Caller holds s.mu.
func (s *Server) evictFullBuckets(now time.Time) {
	rate, burst := s.opts.SubmitRate, float64(s.opts.SubmitBurst)
	for t, b := range s.buckets {
		if b.tokens+rate*now.Sub(b.last).Seconds() >= burst {
			delete(s.buckets, t)
		}
	}
}

// Job returns a copy of the job's public state.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.viewLocked(j), true
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.viewLocked(s.jobs[id]))
	}
	return out
}

// Cancel requests cancellation. Queued jobs cancel immediately;
// running jobs stop at the next simulation chunk. Returns false for
// unknown or already-terminal jobs.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.state == JobDone || j.state == JobFailed || j.state == JobCancelled {
		return false
	}
	j.cancelled = true
	if j.cancelRun != nil {
		j.cancelRun()
	}
	if j.state == JobQueued {
		s.finishLocked(j, JobCancelled, "cancelled")
		s.wal.Append(Record{Kind: RecCancel, ID: id}, false)
	}
	return true
}

// Result returns the cached payload for key (CRC-verified). A corrupt
// blob is quarantined and reported as a miss.
func (s *Server) Result(key string) ([]byte, bool) {
	payload, ok, err := s.store.Get(key)
	if err != nil {
		s.noteQuarantine(err)
	}
	return payload, ok
}

// noteQuarantine folds a store corruption verdict into stats and
// telemetry.
func (s *Server) noteQuarantine(err error) {
	s.mu.Lock()
	s.stats.CacheQuarantines++
	s.mu.Unlock()
	s.bus.Emit(telemetry.Event{Kind: telemetry.EvCacheQuarantine, Job: -1, Err: err.Error()})
}

// Stats returns a snapshot of the gateway counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// viewLocked deep-copies a job's public state under s.mu.
func (s *Server) viewLocked(j *job) JobStatus {
	runs := make([]RunStatus, len(j.runs))
	copy(runs, j.runs)
	return JobStatus{
		ID: j.id, Tenant: j.tenant, State: j.state, Spec: *j.spec,
		Runs: runs, Error: j.errMsg, Resumed: j.resumed,
	}
}

// worker is one supervised worker: it drains the queue until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.queue:
			s.mu.Lock()
			s.stats.QueueDepth--
			depth := s.stats.QueueDepth
			s.mu.Unlock()
			s.bus.Emit(telemetry.Event{Kind: telemetry.EvJobDequeue, Job: -1, Total: int64(depth)})
			s.runJob(j)
		}
	}
}

// runJob executes every pending run of j, serving from the result
// cache where possible, and journals the outcome.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.cancelled {
		if j.state == JobQueued {
			s.finishLocked(j, JobCancelled, "cancelled")
			s.wal.Append(Record{Kind: RecCancel, ID: j.id}, false)
		}
		s.mu.Unlock()
		return
	}
	j.state = JobRunning
	runCtx, cancelRun := context.WithCancel(s.ctx)
	j.cancelRun = cancelRun
	s.mu.Unlock()
	defer cancelRun()

	failures := 0
	for i := range j.runs {
		if j.runs[i].State == RunDone {
			continue
		}
		if runCtx.Err() != nil {
			break
		}
		s.mu.Lock()
		j.runs[i].State = RunRunning
		s.mu.Unlock()
		cached, err := s.runOne(runCtx, j, i)
		s.mu.Lock()
		switch {
		case err == nil:
			j.runs[i].State = RunDone
			j.runs[i].Cached = cached
			s.releaseRunLocked(j.tenant)
			s.wal.Append(Record{Kind: RecRunDone, ID: j.id, Run: i, Key: j.runs[i].Key, Cached: cached}, false)
		case runCtx.Err() != nil && s.ctx.Err() != nil:
			// Shutdown drain: leave the run pending and the job
			// resumable; its spool checkpoint carries the progress.
			j.runs[i].State = RunPending
			j.state = JobQueued
			j.cancelRun = nil
			s.mu.Unlock()
			return
		case runCtx.Err() != nil:
			// User cancellation, not a simulation failure: the run is
			// skipped, the post-loop epilogue finishes the job as
			// cancelled.
			j.runs[i].State = RunSkipped
			s.releaseRunLocked(j.tenant)
		default:
			state := RunFailed
			if errors.Is(err, context.DeadlineExceeded) {
				state = RunTimeout
			}
			j.runs[i].State = state
			j.runs[i].Err = err.Error()
			s.releaseRunLocked(j.tenant)
			failures++
			if failures >= s.opts.MaxFailures {
				for k := i + 1; k < len(j.runs); k++ {
					if j.runs[k].State == RunPending {
						j.runs[k].State = RunSkipped
						s.releaseRunLocked(j.tenant)
					}
				}
				msg := fmt.Sprintf("breaker tripped after %d failed runs: %v", failures, err)
				s.finishLocked(j, JobFailed, msg)
				s.wal.Append(Record{Kind: RecJobFail, ID: j.id, Err: msg}, false)
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancelRun = nil
	if j.cancelled && j.state == JobRunning {
		s.finishLocked(j, JobCancelled, "cancelled")
		s.wal.Append(Record{Kind: RecCancel, ID: j.id}, false)
		return
	}
	if s.ctx.Err() != nil && pendingRuns(j) > 0 {
		j.state = JobQueued // suspended; Close journals the suspend marker
		return
	}
	if failures > 0 {
		msg := fmt.Sprintf("%d of %d runs failed", failures, len(j.runs))
		s.finishLocked(j, JobFailed, msg)
		s.wal.Append(Record{Kind: RecJobFail, ID: j.id, Err: msg}, false)
		return
	}
	s.finishLocked(j, JobDone, "")
	s.wal.Append(Record{Kind: RecJobDone, ID: j.id}, false)
}

// finishLocked moves j to a terminal state and releases its budget.
// Caller holds s.mu.
func (s *Server) finishLocked(j *job, state JobState, msg string) {
	if state != JobDone {
		j.errMsg = msg
	}
	for i := range j.runs {
		if j.runs[i].State == RunPending || j.runs[i].State == RunRunning {
			if state == JobCancelled {
				j.runs[i].State = RunSkipped
			}
			s.releaseRunLocked(j.tenant)
		}
	}
	j.state = state
	j.cancelRun = nil
	switch state {
	case JobDone:
		s.stats.JobsDone++
	case JobFailed:
		s.stats.JobsFailed++
	}
}

// runOne serves run i of j from the cache or simulates it (with a
// checkpoint spool when the configuration supports resuming). Returns
// whether the result came from the cache.
func (s *Server) runOne(ctx context.Context, j *job, i int) (cached bool, err error) {
	key := j.runs[i].Key
	if _, ok, gerr := s.store.Get(key); gerr != nil {
		s.noteQuarantine(gerr)
	} else if ok {
		s.mu.Lock()
		s.stats.CacheHits++
		s.mu.Unlock()
		s.bus.Emit(telemetry.Event{Kind: telemetry.EvCacheHit, Job: -1})
		return true, nil
	}
	s.mu.Lock()
	s.stats.CacheMisses++
	s.stats.Simulations++
	s.mu.Unlock()
	s.bus.Emit(telemetry.Event{Kind: telemetry.EvCacheMiss, Job: -1})

	cfg := j.cfgs[i]
	spool := ""
	if resumable(cfg) {
		spool = filepath.Join(s.opts.Dir, "spool", fmt.Sprintf("%s-%d.ckpt", j.id, i))
		cfg.CheckpointPath, cfg.ResumePath = spool, spool
		cfg.CheckpointEvery = s.opts.CheckpointEvery
	}
	if s.opts.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RunTimeout)
		defer cancel()
	}
	res, err := s.run(ctx, cfg)
	if err != nil && spool != "" && isCheckpointErr(err) {
		// The spool checkpoint is torn or from another world: move it
		// aside (evidence, like a quarantined blob) and run fresh.
		s.fs.Rename(spool, spool+".corrupt")
		res, err = s.run(ctx, cfg)
	}
	if err != nil {
		return false, err
	}
	if err := s.store.Put(key, EncodeResult(res)); err != nil {
		return false, fmt.Errorf("store result: %w", err)
	}
	if spool != "" {
		s.fs.Remove(spool)
	}
	return false, nil
}

// resumable reports whether cfg supports checkpoint/resume: credit-
// flow schemes without CI early stopping (the CI estimator is not part
// of the checkpoint format, so resuming mid-measurement would change
// where the run stops; such runs re-run from scratch instead — still
// deterministic, just not incremental).
func resumable(cfg seec.Config) bool {
	switch cfg.Scheme {
	case seec.SchemeCHIPPER, seec.SchemeMinBD:
		return false
	}
	return cfg.StopCI == 0
}

// isCheckpointErr reports a typed checkpoint validation failure.
func isCheckpointErr(err error) bool {
	return errors.Is(err, checkpoint.ErrCorrupt) || errors.Is(err, checkpoint.ErrTruncated) ||
		errors.Is(err, checkpoint.ErrVersion) || errors.Is(err, checkpoint.ErrConfigMismatch) ||
		errors.Is(err, checkpoint.ErrUnsupported)
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close shuts down gracefully: stop accepting submissions, cancel
// in-flight simulations (their spool checkpoints carry the progress),
// wait for the workers (bounded by ctx), journal a suspend marker for
// every resumable job, and sync-close the journal. A job in flight at
// Close is re-enqueued — and resumed from its checkpoint — on the next
// boot.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: close: workers did not drain: %w", ctx.Err())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		if j := s.jobs[id]; j.state == JobQueued || j.state == JobRunning {
			s.wal.Append(Record{Kind: RecSuspend, ID: id}, false)
		}
	}
	return s.wal.Close()
}

// Abort is the crash path used by the chaos harness: cancel everything
// and wait for the workers WITHOUT journaling suspend markers or
// syncing the WAL — the closest a live process can come to kill -9.
// State on disk is whatever the durability barriers already made
// stable, which is exactly what the invariants are about.
func (s *Server) Abort() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	if s.wal.f != nil {
		s.wal.f.Close()
		s.wal.f = nil
	}
}
