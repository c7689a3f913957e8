package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seec"
	"seec/internal/serve"
)

// seecd-mixed is the gateway under two closed-loop clients. Set-up
// restarts it: serve.New replays a journal that holds a prior session
// of completed jobs, then serve.Handler goes up on a loopback listener,
// so setup_s is restart replay. Each operation is one HTTP job: POST a
// 4x4 SEEC spec whose rates list repeats its two points — two runs
// simulate (with spool checkpoints and a store write) and two are
// served from the store — then poll until done and GET every result.
// Every job carries the same hit/miss mix, so its turnaround stays in
// one mode.
const (
	seecdSetups     = 5
	seecdClients    = 2
	seecdWorkers    = 2
	seecdPriorJobs  = 2000 // completed jobs in the replayed journal
	seecdWarmup     = 1000
	seecdSimCycles  = 8000
	seecdPoll       = 10 * time.Millisecond
	seecdMinOps     = digestOps
	seecdRunsPerJob = 4
	seecdCacheHits  = 2
	// seecdCPUWindow is how many consecutive job completions one CPU
	// time sample spans: the clients overlap, so one job's CPU time
	// cannot be told apart from the other's, and a run reports the
	// process CPU time per job over each window instead.
	seecdCPUWindow   = 16
	seecdHTTPTimeout = 30 * time.Second
)

// seecdRates are the two injection-rate bands of a job's points, both
// below 4x4 saturation.
var seecdRates = [2][2]float64{{0.08, 0.10}, {0.14, 0.16}}

// seecdSpec returns job op's spec for the seed: fresh rates, so its
// first two runs miss the store, each repeated, so the last two hit.
func seecdSpec(seed uint64, op int) []byte {
	r := splitmix{seed ^ uint64(op+1)*0x9e3779b97f4a7c15}
	a := r.uniform(seecdRates[0][0], seecdRates[0][1])
	b := r.uniform(seecdRates[1][0], seecdRates[1][1])
	spec := map[string]any{
		"scheme": "seec", "rows": 4, "cols": 4,
		"warmup": seecdWarmup, "sim_cycles": seecdSimCycles,
		"seed":  r.next()>>11 + 1,
		"rates": []float64{a, b, a, b},
	}
	raw, _ := json.Marshal(spec) // a map of basic values always marshals
	return raw
}

// priorJournal writes the journal of the prior session into dir:
// seecdPriorJobs completed jobs with seed-derived specs, written with
// serve.OpenWAL. It returns the number of records.
func priorJournal(seed uint64, dir string) (int, error) {
	w, _, err := serve.OpenWAL(serve.OSFS{}, filepath.Join(dir, "wal.log"))
	if err != nil {
		return 0, err
	}
	records := 0
	for j := 0; j < seecdPriorJobs; j++ {
		sp, err := serve.DecodeJobSpec(seecdSpec(^seed, j))
		if err != nil {
			return 0, err
		}
		id := fmt.Sprintf("j%d", j+1)
		recs := []serve.Record{{Kind: serve.RecSubmit, ID: id, Tenant: "prior", Spec: sp}}
		for run, cfg := range sp.Configs() {
			recs = append(recs, serve.Record{Kind: serve.RecRunDone, ID: id, Run: run, Key: serve.CacheKey(cfg), Cached: run >= 2})
		}
		recs = append(recs, serve.Record{Kind: serve.RecJobDone, ID: id})
		for _, rec := range recs {
			if _, err := w.Append(rec, false); err != nil {
				return 0, err
			}
			records++
		}
	}
	return records, w.Close()
}

// gateway is one running seecd instance.
type gateway struct {
	srv  *serve.Server
	http *http.Server
	ln   net.Listener
	done chan struct{} // closed when Serve returns
}

func (g *gateway) close() {
	g.http.Close()
	<-g.done
	g.srv.Close(context.Background())
}

// startGateway boots the gateway on dir and serves it on loopback.
func startGateway(dir string, tr *seecdTrace) (*gateway, error) {
	o := serve.Options{Dir: dir, Workers: seecdWorkers}
	if tr != nil {
		o.FS = tr.fs()
		o.RunSynthetic = tr.run
	}
	srv, err := serve.New(o)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		return nil, err
	}
	g := &gateway{srv: srv, ln: ln, done: make(chan struct{}),
		http: &http.Server{Handler: serve.Handler(srv, nil)}}
	go func() {
		defer close(g.done)
		g.http.Serve(ln)
	}()
	return g, nil
}

func runSeecd(opt options, out *outcome) error {
	dir := filepath.Join(opt.dir, "gateway")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	records, err := priorJournal(opt.seed, dir)
	if err != nil {
		return err
	}
	tr := newSeecdTrace(out.spans)
	gw, err := setUp(opt, out, seecdSetups, func() (*gateway, error) {
		start := time.Now()
		g, err := startGateway(dir, tr)
		out.part("serve.replay_ms", float64(time.Since(start).Nanoseconds())/1e6)
		return g, err
	})
	if err != nil {
		return err
	}
	defer gw.close()
	if opt.child {
		return nil
	}
	if st := gw.srv.Stats(); st.WALRecordsReplay != int64(records) || st.WALJobsResumed != 0 {
		out.problem("replay: %d records, %d resumed; want %d and 0", st.WALRecordsReplay, st.WALJobsResumed, records)
	}

	base := "http://" + gw.ln.Addr().String()
	client := &http.Client{
		Timeout:   seecdHTTPTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: seecdClients, MaxConnsPerHost: seecdClients},
	}
	defer client.CloseIdleConnections()
	payloads := make([][]byte, seecdMinOps)
	stats0 := gw.srv.Stats()
	// A traced run turns the seams on for its first two thirds and off
	// for the last: the clients overlap, so tracing cannot alternate per
	// operation as it does in the sequential workloads. Tracing first
	// puts the digest's jobs in the traced phase. A phase ends once its
	// time is up and it has run its minimum number of operations; an
	// untraced phase's minimum gives its p90 the samples it needs and
	// op_cpu_ms_p50 several windows.
	type phase struct {
		traced bool
		secs   float64
		minOps int
	}
	phases := []phase{{false, float64(opt.seconds), tailMinOps}}
	if opt.trace {
		phases = []phase{
			{true, float64(opt.seconds) * 2 / 3, seecdMinOps},
			{false, float64(opt.seconds) / 3, tailMinOps},
		}
	}
	var next atomic.Int64
	var polls, acks []float64
	var mu sync.Mutex
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	var untracedWindow time.Duration
	for _, ph := range phases {
		traced := ph.traced
		tr.setOn(traced)
		phaseStart := time.Now()
		deadline := time.Now().Add(time.Duration(ph.secs * float64(time.Second)))
		minEnd := max(seecdMinOps, int(next.Load())+ph.minOps) // first operation id the phase may skip
		cpuMarks := []time.Duration{cpuTime()}                 // at the start and at every completion
		var wg sync.WaitGroup
		for c := 0; c < seecdClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= minEnd && !time.Now().Before(deadline) {
						return
					}
					r := clientOp(client, base, opt.seed, i, c, tr.ifOn())
					mu.Lock()
					out.attempted++
					if r.err != nil {
						out.failed++
						out.problem("job %d: %v", i, r.err)
					}
					if traced {
						out.traced = append(out.traced, r.d)
					} else {
						out.ops = append(out.ops, r.d)
					}
					cpuMarks = append(cpuMarks, cpuTime())
					polls = append(polls, float64(r.polls))
					acks = append(acks, float64(r.ack.Nanoseconds())/1e6)
					if i < seecdMinOps {
						payloads[i] = r.payload
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		if !traced {
			untracedWindow = time.Since(phaseStart)
			for k := seecdCPUWindow; k < len(cpuMarks); k += seecdCPUWindow {
				out.opsCPU = append(out.opsCPU, (cpuMarks[k]-cpuMarks[k-seecdCPUWindow])/seecdCPUWindow)
			}
		}
	}
	out.noteMem(&mem)
	stats1 := gw.srv.Stats()
	n := float64(out.attempted)
	out.layers["serve.cache_hits"] = float64(stats1.CacheHits-stats0.CacheHits) / n
	out.layers["serve.cache_misses"] = float64(stats1.CacheMisses-stats0.CacheMisses) / n
	out.layers["serve.polls_per_op"] = mean(polls)
	out.layers["serve.ack_ms_p50"] = median(acks)
	if opt.trace {
		out.layers["serve.jobs_per_s"] = float64(len(out.ops)) / untracedWindow.Seconds()
	}
	tr.report(out, len(out.traced))
	h := sha256.New()
	for _, p := range payloads {
		h.Write(p)
	}
	checkGolden(opt, out, hex.EncodeToString(h.Sum(nil)))
	return nil
}

// opResult is one client operation.
type opResult struct {
	d       time.Duration
	ack     time.Duration
	polls   int
	payload []byte // results of the two simulated runs, concatenated
	err     error
}

// clientOp submits job i, polls it to completion and fetches its
// results, checking each step. tr, when non-nil, traces it.
func clientOp(client *http.Client, base string, seed uint64, i, c int, tr *seecdTrace) (r opResult) {
	raw := seecdSpec(seed, i)
	spec, err := serve.DecodeJobSpec(raw)
	if err != nil {
		r.err = err
		return r
	}
	cfgs := spec.Configs()
	keys := make([]string, len(cfgs))
	for k, cfg := range cfgs {
		keys[k] = serve.CacheKey(cfg)
	}
	root := tr.begin(i, keys)
	defer tr.t().end(root)
	start := time.Now()
	defer func() { r.d = time.Since(start) }()

	post := tr.t().open("http.post", root, i)
	tr.posting(i, post)
	var st serve.JobStatus
	code, err := call(client, http.MethodPost, base+"/api/v1/jobs", raw, c, &st)
	r.ack = time.Since(start)
	tr.t().end(post)
	if err != nil {
		r.err = err
		return r
	}
	if code != http.StatusAccepted {
		r.err = fmt.Errorf("submit refused: HTTP %d", code)
		return r
	}
	for st.State == serve.JobQueued || st.State == serve.JobRunning {
		time.Sleep(seecdPoll)
		sp := tr.t().open("http.poll", root, i)
		code, err = call(client, http.MethodGet, base+"/api/v1/jobs/"+st.ID, nil, c, &st)
		tr.t().end(sp)
		r.polls++
		if err != nil {
			r.err = err
			return r
		}
		if code != http.StatusOK {
			r.err = fmt.Errorf("poll %s: HTTP %d", st.ID, code)
			return r
		}
	}
	if err := checkJob(st, keys); err != nil {
		r.err = err
		return r
	}
	got := make([][]byte, len(st.Runs))
	for k, run := range st.Runs {
		sp := tr.t().open("http.result", root, i)
		var body json.RawMessage
		code, err = call(client, http.MethodGet, base+"/api/v1/results/"+run.Key, nil, c, &body)
		tr.t().end(sp)
		if err != nil {
			r.err = err
			return r
		}
		if code != http.StatusOK {
			r.err = fmt.Errorf("result %s: HTTP %d", run.Key[:8], code)
			return r
		}
		got[k] = body
	}
	r.err = checkResults(got, cfgs)
	r.payload = append(append([]byte(nil), got[0]...), got[1]...)
	return r
}

// checkJob checks a finished job's status: done, its runs the
// requested keys, the first two simulated and their repeats cached.
func checkJob(st serve.JobStatus, keys []string) error {
	if st.State != serve.JobDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if len(st.Runs) != seecdRunsPerJob {
		return fmt.Errorf("job %s: %d runs, want %d", st.ID, len(st.Runs), seecdRunsPerJob)
	}
	for k, run := range st.Runs {
		if run.Key != keys[k] || run.State != serve.RunDone {
			return fmt.Errorf("job %s run %d: key %s state %s", st.ID, k, run.Key[:8], run.State)
		}
		if want := k >= seecdRunsPerJob-seecdCacheHits; run.Cached != want {
			return fmt.Errorf("job %s run %d: cached=%v, want %v", st.ID, k, run.Cached, want)
		}
	}
	return nil
}

// checkResults checks the fetched payloads: repeats byte-identical to
// their first run, each a sane result of the configuration it claims.
func checkResults(got [][]byte, cfgs []seec.Config) error {
	for k := range got {
		if k >= 2 && !bytes.Equal(got[k], got[k-2]) {
			return fmt.Errorf("run %d payload differs from run %d's", k, k-2)
		}
		var res seec.Result
		if err := json.Unmarshal(got[k], &res); err != nil {
			return fmt.Errorf("run %d payload: %v", k, err)
		}
		if res.Config.InjectionRate != cfgs[k].InjectionRate || res.Config.Seed != cfgs[k].Seed {
			return fmt.Errorf("run %d payload is for another configuration", k)
		}
		if res.Stalled || res.ReceivedPackets == 0 {
			return fmt.Errorf("run %d: stalled=%v received=%d", k, res.Stalled, res.ReceivedPackets)
		}
	}
	return nil
}

// call makes one HTTP request as client c and decodes a 2xx JSON body
// into v. Refusals (429, 503) come back as their status code.
func call(client *http.Client, method, url string, body []byte, c int, v any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Seec-Tenant", fmt.Sprintf("client-%d", c))
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(b, v); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %v", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// seecdTrace times the gateway through its public seams: the FS seam
// (journal syncs, store reads and writes) and the RunSynthetic seam.
// Store paths carry the result key and spool paths the job id, so each
// timed call is attributed to the client operation that caused it.
type seecdTrace struct {
	tr *tracer
	on atomic.Bool

	mu      sync.Mutex
	byKey   map[string]int // result key -> operation
	ops     map[int]*opTrace
	putFrom map[uint64]putStart
	walSync []float64
	puts    []float64
	gets    []float64
	runs    []float64
	queue   []float64
}

// opTrace is one traced operation's spans and server-side ack time.
type opTrace struct {
	root, post int
	ack        int64
	started    bool
}

type putStart struct {
	at  int64
	key string
}

func newSeecdTrace(t *tracer) *seecdTrace {
	if t == nil {
		return nil
	}
	return &seecdTrace{tr: t, byKey: map[string]int{}, ops: map[int]*opTrace{}, putFrom: map[uint64]putStart{}}
}

func (s *seecdTrace) setOn(on bool) {
	if s != nil {
		s.on.Store(on)
	}
}

// ifOn returns s while tracing is on, else nil.
func (s *seecdTrace) ifOn() *seecdTrace {
	if s == nil || !s.on.Load() {
		return nil
	}
	return s
}

// t returns the tracer, nil when s is.
func (s *seecdTrace) t() *tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// begin registers operation i's result keys and opens its root span.
func (s *seecdTrace) begin(i int, keys []string) int {
	if s == nil {
		return -1
	}
	root := s.tr.open("op", -1, i)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		s.byKey[k] = i
	}
	s.ops[i] = &opTrace{root: root, post: -1}
	return root
}

// posting records operation i's POST span, the parent of the journal
// sync its submit waits on. The submit record holds the job's spec,
// whose first result key maps the sync back to the operation.
func (s *seecdTrace) posting(i, span int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops[i].post = span
}

// opOf returns the traced operation a result key belongs to.
func (s *seecdTrace) opOf(key string) (int, *opTrace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.byKey[key]
	if !ok {
		return -1, nil
	}
	return i, s.ops[i]
}

// run is the RunSynthetic seam.
func (s *seecdTrace) run(ctx context.Context, cfg seec.Config) (seec.Result, error) {
	if !s.on.Load() {
		return seec.RunSyntheticCtx(ctx, cfg)
	}
	i, op := s.opOf(serve.CacheKey(cfg))
	start := s.tr.now()
	res, err := seec.RunSyntheticCtx(ctx, cfg)
	end := s.tr.now()
	if op == nil {
		return res, err
	}
	s.tr.add("serve.run", start, end, op.root, i)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs = append(s.runs, float64(end-start)/1e6)
	if !op.started && op.ack > 0 {
		op.started = true
		s.queue = append(s.queue, float64(start-op.ack)/1e6)
		s.tr.add("serve.queue", op.ack, start, op.root, i)
	}
	return res, err
}

// Per traced job the seams see one synced submit, two simulations and
// their store writes, one queue wait (ack to the first simulation),
// and eight store reads: a lookup per run and a GET per result.
const (
	seecdSimRuns    = seecdRunsPerJob - seecdCacheHits
	seecdStoreReads = 2 * seecdRunsPerJob
)

// report fills the gateway layer metrics, and records a problem when
// the seams attributed other counts of calls than ops traced jobs
// make: a seam that stopped recognising the gateway's calls (its
// journal framing or store layout changed, say) would otherwise let
// its metrics read 0 with nothing failing.
func (s *seecdTrace) report(out *outcome, ops int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out.layers["serve.wal_sync_us_p50"] = median(s.walSync) * 1e3
	out.layers["serve.store_put_ms_p50"] = median(s.puts)
	out.layers["serve.store_get_us_p50"] = median(s.gets) * 1e3
	out.layers["serve.run_ms_p50"] = median(s.runs)
	out.layers["serve.queue_ms_p50"] = median(s.queue)
	for _, c := range []struct {
		what     string
		got, per int
	}{
		{"journal syncs", len(s.walSync), 1},
		{"simulations", len(s.runs), seecdSimRuns},
		{"store writes", len(s.puts), seecdSimRuns},
		{"store reads", len(s.gets), seecdStoreReads},
		{"queue waits", len(s.queue), 1},
	} {
		if c.got != c.per*ops {
			out.problem("seams attributed %d %s to %d traced jobs, want %d", c.got, c.what, ops, c.per*ops)
		}
	}
}

// fs returns the FS seam.
func (s *seecdTrace) fs() serve.FS { return tracedFS{serve.OSFS{}, s} }

// tracedFS is the gateway's filesystem with its durability calls timed.
type tracedFS struct {
	serve.FS
	s *seecdTrace
}

// objectKey returns the result key of a store object or tmp path.
func objectKey(path string) (string, bool) {
	if !strings.Contains(path, string(filepath.Separator)+"objects"+string(filepath.Separator)) {
		return "", false
	}
	key, _, _ := strings.Cut(filepath.Base(path), ".")
	return key, serve.ValidKey(key)
}

func (f tracedFS) OpenAppend(path string) (serve.File, error) {
	file, err := f.FS.OpenAppend(path)
	if err != nil || filepath.Base(path) != "wal.log" {
		return file, err
	}
	return &walFile{File: file, s: f.s}, nil
}

func (f tracedFS) ReadFile(path string) ([]byte, error) {
	key, ok := objectKey(path)
	if !ok || !f.s.on.Load() {
		return f.FS.ReadFile(path)
	}
	start := f.s.tr.now()
	b, err := f.FS.ReadFile(path)
	end := f.s.tr.now()
	if i, op := f.s.opOf(key); op != nil {
		f.s.tr.add("store.get", start, end, op.root, i)
		f.s.mu.Lock()
		f.s.gets = append(f.s.gets, float64(end-start)/1e6)
		f.s.mu.Unlock()
	}
	return b, err
}

// Create opens a store write; the write ends with the directory sync
// the same goroutine makes after renaming the tmp file into place.
func (f tracedFS) Create(path string) (serve.File, error) {
	if key, ok := objectKey(path); ok && f.s.on.Load() {
		f.s.mu.Lock()
		f.s.putFrom[gid()] = putStart{f.s.tr.now(), key}
		f.s.mu.Unlock()
	}
	return f.FS.Create(path)
}

func (f tracedFS) SyncDir(dir string) error {
	if !f.s.on.Load() {
		return f.FS.SyncDir(dir)
	}
	err := f.FS.SyncDir(dir)
	end := f.s.tr.now()
	g := gid()
	f.s.mu.Lock()
	p, ok := f.s.putFrom[g]
	delete(f.s.putFrom, g)
	f.s.mu.Unlock()
	if ok {
		if i, op := f.s.opOf(p.key); op != nil {
			f.s.tr.add("store.put", p.at, end, op.root, i)
			f.s.mu.Lock()
			f.s.puts = append(f.s.puts, float64(end-p.at)/1e6)
			f.s.mu.Unlock()
		}
	}
	return err
}

// walFile is the journal with its Sync timed. Submit holds the
// gateway's lock across append and sync, so the record written just
// before a sync is the one the sync makes durable.
type walFile struct {
	serve.File
	s    *seecdTrace
	last serve.Record
}

// Write keeps the record of a journal frame: a checksum, then the
// record as a JSON object. A frame it cannot decode leaves its sync
// unattributed, which report counts as a problem.
func (w *walFile) Write(p []byte) (int, error) {
	if w.s.on.Load() {
		w.last = serve.Record{}
		if i := bytes.IndexByte(p, '{'); i >= 0 {
			_ = json.Unmarshal(p[i:], &w.last)
		}
	}
	return w.File.Write(p)
}

func (w *walFile) Sync() error {
	if !w.s.on.Load() || w.last.Kind != serve.RecSubmit || w.last.Spec == nil {
		return w.File.Sync()
	}
	start := w.s.tr.now()
	err := w.File.Sync()
	end := w.s.tr.now()
	// The journaled spec is the validated one, so it lowers directly.
	i, op := w.s.opOf(serve.CacheKey(w.last.Spec.Configs()[0]))
	if op == nil {
		return err
	}
	w.s.tr.add("wal.sync", start, end, op.post, i)
	w.s.mu.Lock()
	w.s.walSync = append(w.s.walSync, float64(end-start)/1e6)
	op.ack = end
	w.s.mu.Unlock()
	return err
}
