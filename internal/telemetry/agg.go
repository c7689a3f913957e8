package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// durBuckets are the job-duration histogram bucket upper bounds in
// seconds (Prometheus-style cumulative buckets, +Inf implied).
var durBuckets = [...]float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// maxTrackedRuns bounds the per-run heartbeat table; when a sweep
// abandons runs mid-flight (cancellation) the stalest entries are
// evicted rather than growing without bound.
const maxTrackedRuns = 256

// Aggregator is the in-process Sink behind /status and /metrics: it
// folds the event stream into sweep counters, a job-duration histogram,
// per-run heartbeat state, and an ETA derived from completed-job
// latencies. All methods are safe for concurrent use.
type Aggregator struct {
	mu      sync.Mutex
	started time.Time

	events int64

	sweeps     int64
	sweepsDone int64
	jobs       int64 // planned jobs across all sweeps
	done       int64
	failed     int64
	running    int64
	timeouts   int64
	panics     int64
	trips      int64
	workers    int64 // pool size of the most recent sweep

	firstJobNs int64 // TimeNs of the first job_start, for jobs/sec
	lastNs     int64 // TimeNs of the most recent event

	jobSumNs     int64 // total wall ns across completed jobs
	jobCount     int64
	bucketCounts [len(durBuckets) + 1]int64 // +Inf tail

	ckptSaves    int64
	ckptRestores int64
	ciStops      int64
	wdStalls     int64

	// Gateway (seecd) counters, non-zero only when an internal/serve
	// instance — or the sweep planner, which shares the cache event
	// vocabulary — feeds the bus.
	svcSeen     bool
	queueDepth  int64
	cacheHits   int64
	cacheMisses int64
	quarantines int64
	walReplays  int64
	walRecords  int64
	walResumed  int64
	walDropped  int64

	// Planner (internal/plan) counters, non-zero only when a planner
	// feeds the bus.
	planSeen      bool
	planCompiles  int64
	planJobs      int64
	planReused    int64
	planScheduled int64
	planEstNs     int64
	wfFamilies    int64
	wfForks       int64
	wfSaved       int64
	wfFallbacks   int64

	runs map[int32]*runState
}

// runState is the live view of one simulation, updated by heartbeats.
type runState struct {
	cycle    int64
	total    int64
	inFlight int64
	cps      float64 // cycles/sec over the last heartbeat interval
	lastNs   int64
	lastCyc  int64
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{started: time.Now(), runs: make(map[int32]*runState)}
}

// Emit implements Sink.
func (a *Aggregator) Emit(e Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events++
	if e.TimeNs > a.lastNs {
		a.lastNs = e.TimeNs
	}
	switch e.Kind {
	case EvSweepStart:
		a.sweeps++
		a.jobs += e.Total
		a.workers = e.InFlight
	case EvSweepDone:
		a.sweepsDone++
	case EvJobStart:
		a.running++
		if a.firstJobNs == 0 {
			a.firstJobNs = e.TimeNs
		}
	case EvJobDone:
		a.running--
		a.done++
		a.jobSumNs += e.DurNs
		a.jobCount++
		a.bucketCounts[bucketOf(float64(e.DurNs)/1e9)]++
	case EvJobFail, EvJobTimeout, EvJobPanic:
		a.running--
		a.failed++
		if e.Kind == EvJobTimeout {
			a.timeouts++
		}
		if e.Kind == EvJobPanic {
			a.panics++
		}
	case EvBreakerTrip:
		a.trips++
	case EvHeartbeat:
		a.heartbeat(e)
	case EvRunDone, EvCIStop:
		if e.Kind == EvCIStop {
			a.ciStops++
		}
		delete(a.runs, e.Job)
	case EvCheckpointSave:
		a.ckptSaves++
	case EvCheckpointRestore:
		a.ckptRestores++
	case EvWatchdogStall:
		a.wdStalls++
	case EvJobEnqueue, EvJobDequeue:
		a.svcSeen = true
		a.queueDepth = e.Total
	case EvCacheHit:
		a.svcSeen = true
		a.cacheHits++
	case EvCacheMiss:
		a.svcSeen = true
		a.cacheMisses++
	case EvCacheQuarantine:
		a.svcSeen = true
		a.quarantines++
	case EvWALReplay:
		a.svcSeen = true
		a.walReplays++
		a.walRecords += e.Total
		a.walResumed += int64(e.Attempt)
		a.walDropped += e.InFlight
	case EvPlanCompile:
		a.planSeen = true
		a.planCompiles++
		a.planJobs += e.Total
		a.planReused += e.Cycle
		a.planScheduled += e.InFlight
		a.planEstNs += e.DurNs
	case EvWarmupFork:
		a.planSeen = true
		a.wfFamilies++
		a.wfForks += e.Total
		a.wfSaved += e.Cycle
	case EvWarmupFallback:
		a.planSeen = true
		a.wfFallbacks++
	}
}

// heartbeat updates (or creates) the per-run state under a.mu.
func (a *Aggregator) heartbeat(e Event) {
	r := a.runs[e.Job]
	if r == nil {
		if len(a.runs) >= maxTrackedRuns {
			a.evictStalest()
		}
		r = &runState{}
		a.runs[e.Job] = r
	} else if e.TimeNs > r.lastNs {
		dt := float64(e.TimeNs-r.lastNs) / 1e9
		if dt > 0 {
			r.cps = float64(e.Cycle-r.lastCyc) / dt
		}
	}
	r.cycle, r.total, r.inFlight = e.Cycle, e.Total, e.InFlight
	r.lastNs, r.lastCyc = e.TimeNs, e.Cycle
}

// evictStalest drops the run with the oldest heartbeat. Called under
// a.mu.
func (a *Aggregator) evictStalest() {
	var victim int32
	oldest := int64(math.MaxInt64)
	for id, r := range a.runs {
		if r.lastNs < oldest {
			oldest, victim = r.lastNs, id
		}
	}
	delete(a.runs, victim)
}

// bucketOf returns the cumulative-histogram bucket index for a duration
// in seconds (len(durBuckets) = the +Inf tail).
func bucketOf(sec float64) int {
	for i, ub := range durBuckets {
		if sec <= ub {
			return i
		}
	}
	return len(durBuckets)
}

// Close implements Sink.
func (a *Aggregator) Close() error { return nil }

// SweepStatus is the sweep-level half of a Snapshot.
type SweepStatus struct {
	Sweeps       int64   `json:"sweeps"`
	SweepsDone   int64   `json:"sweeps_done"`
	Jobs         int64   `json:"jobs_total"`
	Done         int64   `json:"jobs_done"`
	Failed       int64   `json:"jobs_failed"`
	Running      int64   `json:"jobs_running"`
	Timeouts     int64   `json:"timeouts"`
	Panics       int64   `json:"panics"`
	BreakerTrips int64   `json:"breaker_trips"`
	Workers      int64   `json:"workers"`
	PercentDone  float64 `json:"percent_done"`
	JobsPerSec   float64 `json:"jobs_per_sec"`
	AvgJobSec    float64 `json:"avg_job_sec"`
	EtaSec       float64 `json:"eta_sec"`
}

// RunStatus is the live view of one in-flight simulation.
type RunStatus struct {
	Run          int32   `json:"run"`
	Cycle        int64   `json:"cycle"`
	TotalCycles  int64   `json:"total_cycles"`
	InFlight     int64   `json:"in_flight"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

// ServiceStatus is the gateway half of a Snapshot: queue depth, result
// cache effectiveness and WAL replay provenance. Present when an
// internal/serve gateway or an internal/plan planner (which shares the
// cache event vocabulary) feeds the bus.
type ServiceStatus struct {
	QueueDepth        int64   `json:"queue_depth"`
	CacheHits         int64   `json:"cache_hits"`
	CacheMisses       int64   `json:"cache_misses"`
	CacheHitRatio     float64 `json:"cache_hit_ratio"`
	CacheQuarantines  int64   `json:"cache_quarantines"`
	WALReplays        int64   `json:"wal_replays"`
	WALRecordsReplay  int64   `json:"wal_records_replayed"`
	WALJobsResumed    int64   `json:"wal_jobs_resumed"`
	WALRecordsDropped int64   `json:"wal_records_dropped"`
}

// PlanStatus is the sweep-planner half of a Snapshot: how much of the
// submitted work was resolved by reuse instead of simulation, and what
// warmup-prefix sharing saved. Present only when an internal/plan
// planner feeds the bus.
type PlanStatus struct {
	Compiles          int64   `json:"compiles"`
	Jobs              int64   `json:"jobs"`
	Reused            int64   `json:"reused"`
	Scheduled         int64   `json:"scheduled"`
	EstimatedSec      float64 `json:"estimated_sec"`
	WarmupFamilies    int64   `json:"warmup_families"`
	WarmupForks       int64   `json:"warmup_forks"`
	WarmupCyclesSaved int64   `json:"warmup_cycles_saved"`
	WarmupFallbacks   int64   `json:"warmup_fallbacks"`
}

// Snapshot is the /status document.
type Snapshot struct {
	Now                time.Time      `json:"now"`
	UptimeSec          float64        `json:"uptime_sec"`
	Events             int64          `json:"events_total"`
	Sweep              SweepStatus    `json:"sweep"`
	Service            *ServiceStatus `json:"service,omitempty"`
	Plan               *PlanStatus    `json:"plan,omitempty"`
	Runs               []RunStatus    `json:"runs,omitempty"`
	CheckpointSaves    int64          `json:"checkpoint_saves"`
	CheckpointRestores int64          `json:"checkpoint_restores"`
	CIStops            int64          `json:"ci_stops"`
	WatchdogStalls     int64          `json:"watchdog_stalls"`
}

// Snapshot returns a consistent copy of the aggregated state. The ETA
// is pending-jobs x mean-completed-job-latency / workers: crude but
// honest, and it tightens as the sweep's own latencies accumulate.
func (a *Aggregator) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := time.Now()
	s := Snapshot{
		Now:       now,
		UptimeSec: now.Sub(a.started).Seconds(),
		Events:    a.events,
		Sweep: SweepStatus{
			Sweeps: a.sweeps, SweepsDone: a.sweepsDone,
			Jobs: a.jobs, Done: a.done, Failed: a.failed, Running: a.running,
			Timeouts: a.timeouts, Panics: a.panics,
			BreakerTrips: a.trips, Workers: a.workers,
		},
		CheckpointSaves:    a.ckptSaves,
		CheckpointRestores: a.ckptRestores,
		CIStops:            a.ciStops,
		WatchdogStalls:     a.wdStalls,
	}
	if a.svcSeen {
		svc := &ServiceStatus{
			QueueDepth:        a.queueDepth,
			CacheHits:         a.cacheHits,
			CacheMisses:       a.cacheMisses,
			CacheQuarantines:  a.quarantines,
			WALReplays:        a.walReplays,
			WALRecordsReplay:  a.walRecords,
			WALJobsResumed:    a.walResumed,
			WALRecordsDropped: a.walDropped,
		}
		if lookups := a.cacheHits + a.cacheMisses; lookups > 0 {
			svc.CacheHitRatio = float64(a.cacheHits) / float64(lookups)
		}
		s.Service = svc
	}
	if a.planSeen {
		s.Plan = &PlanStatus{
			Compiles:          a.planCompiles,
			Jobs:              a.planJobs,
			Reused:            a.planReused,
			Scheduled:         a.planScheduled,
			EstimatedSec:      float64(a.planEstNs) / 1e9,
			WarmupFamilies:    a.wfFamilies,
			WarmupForks:       a.wfForks,
			WarmupCyclesSaved: a.wfSaved,
			WarmupFallbacks:   a.wfFallbacks,
		}
	}
	if a.jobs > 0 {
		s.Sweep.PercentDone = 100 * float64(a.done+a.failed) / float64(a.jobs)
	}
	if a.jobCount > 0 {
		s.Sweep.AvgJobSec = float64(a.jobSumNs) / 1e9 / float64(a.jobCount)
	}
	if a.firstJobNs > 0 {
		if el := float64(now.UnixNano()-a.firstJobNs) / 1e9; el > 0 {
			s.Sweep.JobsPerSec = float64(a.done) / el
		}
	}
	if pending := a.jobs - a.done - a.failed; pending > 0 && s.Sweep.AvgJobSec > 0 {
		w := a.workers
		if w < 1 {
			w = 1
		}
		s.Sweep.EtaSec = float64(pending) * s.Sweep.AvgJobSec / float64(w)
	}
	ids := make([]int32, 0, len(a.runs))
	for id := range a.runs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := a.runs[id]
		s.Runs = append(s.Runs, RunStatus{
			Run: id, Cycle: r.cycle, TotalCycles: r.total,
			InFlight: r.inFlight, CyclesPerSec: r.cps,
		})
	}
	return s
}

// WriteStatusJSON renders the snapshot as indented JSON (the /status
// body).
func (a *Aggregator) WriteStatusJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a.Snapshot())
}

// ProgressLine renders a one-line human progress summary with ETA,
// e.g. "jobs 42/130 (32.3%), 1 failed | 8.3 jobs/s | ETA 11s".
func (a *Aggregator) ProgressLine() string {
	s := a.Snapshot()
	line := fmt.Sprintf("jobs %d/%d (%.1f%%)", s.Sweep.Done, s.Sweep.Jobs, s.Sweep.PercentDone)
	if s.Sweep.Failed > 0 {
		line += fmt.Sprintf(", %d failed", s.Sweep.Failed)
	}
	if s.Sweep.JobsPerSec > 0 {
		line += fmt.Sprintf(" | %.1f jobs/s", s.Sweep.JobsPerSec)
	}
	if s.Sweep.EtaSec > 0 {
		line += " | ETA " + (time.Duration(s.Sweep.EtaSec * float64(time.Second))).Round(time.Second).String()
	}
	if n := len(s.Runs); n > 0 {
		var cps float64
		for _, r := range s.Runs {
			cps += r.CyclesPerSec
		}
		line += fmt.Sprintf(" | %d runs live @ %.0f cyc/s", n, cps)
	}
	return line
}

// WritePrometheus renders the aggregated state in the Prometheus text
// exposition format (the /metrics body): counters for job outcomes and
// lifecycle events, gauges for live progress and the ETA, and a
// cumulative histogram of completed-job durations.
func (a *Aggregator) WritePrometheus(w io.Writer) error {
	s := a.Snapshot()
	a.mu.Lock()
	buckets := a.bucketCounts
	jobSumNs, jobCount := a.jobSumNs, a.jobCount
	a.mu.Unlock()

	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# HELP seec_sweeps_total Sweeps started (one per runner Map/Sweep call).\n")
	p("# TYPE seec_sweeps_total counter\nseec_sweeps_total %d\n", s.Sweep.Sweeps)
	p("# HELP seec_jobs_planned_total Jobs planned across all sweeps.\n")
	p("# TYPE seec_jobs_planned_total counter\nseec_jobs_planned_total %d\n", s.Sweep.Jobs)
	p("# HELP seec_jobs_total Terminal job outcomes by state.\n")
	p("# TYPE seec_jobs_total counter\n")
	p("seec_jobs_total{state=\"done\"} %d\n", s.Sweep.Done)
	p("seec_jobs_total{state=\"failed\"} %d\n", s.Sweep.Failed)
	p("seec_jobs_total{state=\"timeout\"} %d\n", s.Sweep.Timeouts)
	p("seec_jobs_total{state=\"panic\"} %d\n", s.Sweep.Panics)
	p("# HELP seec_breaker_trips_total Sweep circuit-breaker trips.\n")
	p("# TYPE seec_breaker_trips_total counter\nseec_breaker_trips_total %d\n", s.Sweep.BreakerTrips)
	p("# HELP seec_jobs_running Jobs currently executing.\n")
	p("# TYPE seec_jobs_running gauge\nseec_jobs_running %d\n", s.Sweep.Running)
	p("# HELP seec_sweep_eta_seconds Estimated seconds until the pending jobs complete.\n")
	p("# TYPE seec_sweep_eta_seconds gauge\nseec_sweep_eta_seconds %g\n", s.Sweep.EtaSec)
	p("# HELP seec_jobs_per_second Completed-job throughput since the first job started.\n")
	p("# TYPE seec_jobs_per_second gauge\nseec_jobs_per_second %g\n", s.Sweep.JobsPerSec)
	p("# HELP seec_job_duration_seconds Wall time of completed jobs.\n")
	p("# TYPE seec_job_duration_seconds histogram\n")
	cum := int64(0)
	for i, ub := range durBuckets {
		cum += buckets[i]
		p("seec_job_duration_seconds_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	cum += buckets[len(durBuckets)]
	p("seec_job_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	p("seec_job_duration_seconds_sum %g\n", float64(jobSumNs)/1e9)
	p("seec_job_duration_seconds_count %d\n", jobCount)
	p("# HELP seec_runs_active Simulations currently emitting heartbeats.\n")
	p("# TYPE seec_runs_active gauge\nseec_runs_active %d\n", len(s.Runs))
	var cps, inflight float64
	for _, r := range s.Runs {
		cps += r.CyclesPerSec
		inflight += float64(r.InFlight)
	}
	p("# HELP seec_run_cycles_per_second Aggregate simulated cycles/sec across live runs.\n")
	p("# TYPE seec_run_cycles_per_second gauge\nseec_run_cycles_per_second %g\n", cps)
	p("# HELP seec_run_inflight_packets Aggregate in-flight packets across live runs.\n")
	p("# TYPE seec_run_inflight_packets gauge\nseec_run_inflight_packets %g\n", inflight)
	p("# HELP seec_checkpoint_saves_total Checkpoint saves across all runs.\n")
	p("# TYPE seec_checkpoint_saves_total counter\nseec_checkpoint_saves_total %d\n", s.CheckpointSaves)
	p("# HELP seec_checkpoint_restores_total Checkpoint restores across all runs.\n")
	p("# TYPE seec_checkpoint_restores_total counter\nseec_checkpoint_restores_total %d\n", s.CheckpointRestores)
	p("# HELP seec_ci_stops_total Runs ended early by the CI precision target.\n")
	p("# TYPE seec_ci_stops_total counter\nseec_ci_stops_total %d\n", s.CIStops)
	p("# HELP seec_watchdog_stalls_total Watchdog no-ejection-progress verdicts.\n")
	p("# TYPE seec_watchdog_stalls_total counter\nseec_watchdog_stalls_total %d\n", s.WatchdogStalls)
	if s.Service != nil {
		svc := s.Service
		p("# HELP seec_queue_depth Gateway jobs waiting in the durable queue.\n")
		p("# TYPE seec_queue_depth gauge\nseec_queue_depth %d\n", svc.QueueDepth)
		p("# HELP seec_cache_lookups_total Result-cache lookups by outcome.\n")
		p("# TYPE seec_cache_lookups_total counter\n")
		p("seec_cache_lookups_total{outcome=\"hit\"} %d\n", svc.CacheHits)
		p("seec_cache_lookups_total{outcome=\"miss\"} %d\n", svc.CacheMisses)
		p("# HELP seec_cache_hit_ratio Fraction of cache lookups served without simulating.\n")
		p("# TYPE seec_cache_hit_ratio gauge\nseec_cache_hit_ratio %g\n", svc.CacheHitRatio)
		p("# HELP seec_cache_quarantines_total Corrupt result blobs moved to quarantine.\n")
		p("# TYPE seec_cache_quarantines_total counter\nseec_cache_quarantines_total %d\n", svc.CacheQuarantines)
		p("# HELP seec_wal_records_replayed_total Journal records replayed across boots.\n")
		p("# TYPE seec_wal_records_replayed_total counter\nseec_wal_records_replayed_total %d\n", svc.WALRecordsReplay)
		p("# HELP seec_wal_jobs_resumed_total Jobs re-enqueued from the journal on boot.\n")
		p("# TYPE seec_wal_jobs_resumed_total counter\nseec_wal_jobs_resumed_total %d\n", svc.WALJobsResumed)
		p("# HELP seec_wal_records_dropped_total Torn or corrupt journal tail records dropped on replay.\n")
		p("# TYPE seec_wal_records_dropped_total counter\nseec_wal_records_dropped_total %d\n", svc.WALRecordsDropped)
	}
	if s.Plan != nil {
		pl := s.Plan
		p("# HELP seec_plan_compiles_total Job batches compiled by the sweep planner.\n")
		p("# TYPE seec_plan_compiles_total counter\nseec_plan_compiles_total %d\n", pl.Compiles)
		p("# HELP seec_plan_jobs_total Planner jobs by resolution.\n")
		p("# TYPE seec_plan_jobs_total counter\n")
		p("seec_plan_jobs_total{outcome=\"reused\"} %d\n", pl.Reused)
		p("seec_plan_jobs_total{outcome=\"scheduled\"} %d\n", pl.Scheduled)
		p("# HELP seec_warmup_families_total Warmup-prefix families executed via checkpoint fork.\n")
		p("# TYPE seec_warmup_families_total counter\nseec_warmup_families_total %d\n", pl.WarmupFamilies)
		p("# HELP seec_warmup_forks_total Family members forked from a shared warm checkpoint.\n")
		p("# TYPE seec_warmup_forks_total counter\nseec_warmup_forks_total %d\n", pl.WarmupForks)
		p("# HELP seec_warmup_cycles_saved_total Warmup cycles not re-simulated thanks to prefix sharing.\n")
		p("# TYPE seec_warmup_cycles_saved_total counter\nseec_warmup_cycles_saved_total %d\n", pl.WarmupCyclesSaved)
		p("# HELP seec_warmup_fallbacks_total Families that fell back to independent runs.\n")
		p("# TYPE seec_warmup_fallbacks_total counter\nseec_warmup_fallbacks_total %d\n", pl.WarmupFallbacks)
	}
	p("# HELP seec_events_total Telemetry events aggregated.\n")
	p("# TYPE seec_events_total counter\nseec_events_total %d\n", s.Events)
	return err
}
