// Package telemetry is the sweep- and run-level observability layer:
// a structured event taxonomy for the experiment harness (job
// lifecycle, breaker trips, checkpoint saves/restores, CI-stop
// decisions, watchdog stall verdicts, periodic in-run heartbeats), a
// small fan-out Bus with pluggable sinks (JSONL log, in-process
// Aggregator), and an HTTP server exposing the aggregated state as
// /status (JSON), /metrics (Prometheus text format) and /debug/pprof.
//
// Where internal/trace observes one simulation at flit granularity,
// this package observes the layer above it: a multi-hour sweep of
// thousands of simulations, live. The design borrows the same
// zero-overhead discipline: events are fixed-size structs passed by
// value, every emit site guards on a nil Bus, and a disabled bus costs
// one predictable branch. Telemetry only observes — results are
// byte-identical with it on or off.
package telemetry

import "fmt"

// Kind identifies one event type in the taxonomy. Sweep events come
// from the worker pool (one sweep = one runner.Map call, which every
// planner Map and Run makes), job events from individual worker slots,
// run events from inside a single simulation's run loop.
type Kind uint8

const (
	// EvSweepStart: a pool fan-out began (Total = planned jobs,
	// InFlight = worker-pool size).
	EvSweepStart Kind = iota
	// EvSweepDone: the pool fan-out returned (Total = planned jobs).
	EvSweepDone
	// EvJobStart: a worker picked up job Job (first attempt).
	EvJobStart
	// EvJobDone: job Job completed successfully (Attempt = 1, DurNs =
	// wall time).
	EvJobDone
	// EvJobFail: job Job failed for an ordinary reason (Err = cause,
	// Attempt = 1, DurNs = wall time).
	EvJobFail
	// EvJobTimeout: job Job failed terminally by exceeding its per-job
	// deadline.
	EvJobTimeout
	// EvJobPanic: job Job failed terminally by panicking (the runner
	// recovered it).
	EvJobPanic
	// EvBreakerTrip: the sweep's failure budget was exhausted and
	// remaining jobs were cancelled (Total = the budget).
	EvBreakerTrip
	// EvHeartbeat: periodic progress from inside a running simulation
	// (Job = run sequence id, Cycle = current cycle, Total = planned
	// end cycle, InFlight = packets in flight).
	EvHeartbeat
	// EvRunDone: a simulation's run loop finished (Cycle = final cycle).
	EvRunDone
	// EvCheckpointSave: a run saved a periodic or final checkpoint.
	EvCheckpointSave
	// EvCheckpointRestore: a run restored from a checkpoint instead of
	// starting fresh (Cycle = the restored cycle).
	EvCheckpointRestore
	// EvCIStop: confidence-interval early stopping ended a run before
	// its cycle budget (Cycle = stop cycle, Attempt = CI batches
	// observed).
	EvCIStop
	// EvWatchdogStall: the stall watchdog issued a no-ejection-progress
	// verdict (Cycle = current cycle, Err = human-readable stall
	// description).
	EvWatchdogStall

	// Gateway (seecd) events, emitted by internal/serve. Job is -1:
	// gateway jobs carry string ids, not sweep indices.

	// EvJobEnqueue: a gateway job entered the durable queue (Total =
	// queue depth after the enqueue).
	EvJobEnqueue
	// EvJobDequeue: a gateway worker picked up a queued job (Total =
	// queue depth after the dequeue).
	EvJobDequeue
	// EvCacheHit: a run was served from the content-addressed result
	// store without simulating.
	EvCacheHit
	// EvCacheMiss: a run had no cached result and was simulated.
	EvCacheMiss
	// EvCacheQuarantine: a cached blob failed CRC validation and was
	// moved to quarantine instead of being served (Err = detail).
	EvCacheQuarantine
	// EvWALReplay: the gateway replayed its write-ahead journal on boot
	// (Total = records replayed, Attempt = jobs re-enqueued as
	// resumable, InFlight = trailing records dropped as torn/corrupt,
	// DurNs = the replay's wall time, from reading the journal through
	// rebuilding the job table).
	EvWALReplay

	// Planner (internal/plan) events. Job is -1: plan events describe
	// whole batches, not individual sweep indices. The planner also
	// emits the cache_* events above for its store lookups, so the
	// cache counters cover both the gateway and library callers.

	// EvPlanCompile: a job batch was compiled into a reuse-aware
	// schedule (Total = jobs submitted, Cycle = jobs resolved without
	// simulating — cache hits plus in-batch duplicates, InFlight =
	// execution units scheduled).
	EvPlanCompile
	// EvWarmupFork: a warmup family executed — the family's warmup
	// prefix was paid once and the members forked from the checkpoint
	// (Total = forked members, Cycle = warmup cycles saved versus
	// independent runs).
	EvWarmupFork
	// EvWarmupFallback: a warmup family could not fork (non-forkable
	// simulation state) and its members re-ran independently
	// (Err = reason, Total = members).
	EvWarmupFallback

	numKinds
)

// String returns the short snake_case event name used by the sinks.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

var kindNames = [numKinds]string{
	EvSweepStart:        "sweep_start",
	EvSweepDone:         "sweep_done",
	EvJobStart:          "job_start",
	EvJobDone:           "job_done",
	EvJobFail:           "job_fail",
	EvJobTimeout:        "job_timeout",
	EvJobPanic:          "job_panic",
	EvBreakerTrip:       "breaker_trip",
	EvHeartbeat:         "heartbeat",
	EvRunDone:           "run_done",
	EvCheckpointSave:    "checkpoint_save",
	EvCheckpointRestore: "checkpoint_restore",
	EvCIStop:            "ci_stop",
	EvWatchdogStall:     "watchdog_stall",
	EvJobEnqueue:        "job_enqueue",
	EvJobDequeue:        "job_dequeue",
	EvCacheHit:          "cache_hit",
	EvCacheMiss:         "cache_miss",
	EvCacheQuarantine:   "cache_quarantine",
	EvWALReplay:         "wal_replay",
	EvPlanCompile:       "plan_compile",
	EvWarmupFork:        "warmup_fork",
	EvWarmupFallback:    "warmup_fallback",
}

// Event is one recorded occurrence. The struct is fixed-size apart from
// the (rarely set) Err string and is passed by value, so emitting never
// allocates on the success paths. Field meaning varies slightly by Kind
// (see the Kind constants); unused fields are zero.
type Event struct {
	TimeNs   int64  // wall clock, unix nanoseconds; stamped by Bus.Emit
	Kind     Kind   // event type
	Job      int32  // sweep job index, or run sequence id; -1 when n/a
	Attempt  int32  // 1-based attempt number for job events
	Total    int64  // sweep events: planned jobs; run events: planned end cycle
	Cycle    int64  // run events: current simulation cycle
	InFlight int64  // heartbeat: packets in flight; sweep_start: workers
	DurNs    int64  // job terminal events: wall nanoseconds spent
	Err      string // failure cause, "" otherwise
}
