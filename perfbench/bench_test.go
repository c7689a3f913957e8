package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"seec"
	"seec/internal/checkpoint"
	"seec/internal/noc"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := tailP90(xs); ok {
		t.Errorf("p90 reported from %d samples", len(xs))
	}
	xs = append(xs, 99)
	if v, ok := tailP90(xs); !ok || !near(v, quantile(xs, 0.9)) {
		t.Errorf("p90 of 100 samples = %v, %v", v, ok)
	}
}

func TestStopwatchCountsThisProcessCPU(t *testing.T) {
	sw := startWatch()
	x := uint64(1)
	for time.Since(sw.wall0) < 50*time.Millisecond {
		x = x*6364136223846793005 + 1442695040888963407
	}
	got := sw.stop()
	if x == 0 || got.cpu < 10*time.Millisecond || got.cpu > 2*got.wall+10*time.Millisecond {
		t.Errorf("a 50 ms busy loop measured wall %v, CPU %v", got.wall, got.cpu)
	}
	sw = startWatch()
	time.Sleep(50 * time.Millisecond)
	if got := sw.stop(); got.cpu > 10*time.Millisecond {
		t.Errorf("a 50 ms sleep used %v of CPU time", got.cpu)
	}
}

func TestVerdict(t *testing.T) {
	ok := &outcome{attempted: 10}
	if !ok.correct() {
		t.Error("a run with no failures is not correct")
	}
	failed := &outcome{attempted: 10, failed: 1}
	if failed.correct() {
		t.Error("a failed operation left the run correct")
	}
	checked := &outcome{attempted: 10}
	checked.problem("digest mismatch")
	if checked.correct() {
		t.Error("a failed output check left the run correct")
	}
	for i := 0; i < 50; i++ {
		checked.problem("again")
	}
	if len(checked.problems) > 20 {
		t.Errorf("kept %d problem messages", len(checked.problems))
	}
}

func TestSelfByOpAccountsForTheOperation(t *testing.T) {
	tr := newTracer()
	root := tr.add("op", 0, 100, -1, 0)
	a := tr.add("a", 10, 40, root, 0)
	tr.add("b", 20, 60, root, 0) // parallel with a over [20, 40)
	tr.add("leaf", 25, 35, a, 0) // a's child: a is not innermost there
	tr.aggregate(a, "hot", 4)
	tr.add("setup", 0, 1000, -1, -1) // set-up spans are not operations
	self := tr.selfByOp()
	// [0,10) op; [10,20) a; [20,25) a|b; [25,35) leaf|b; [35,40) a|b;
	// [40,60) b; [60,100) op. a's 4 ns of aggregated time moves to hot.
	want := map[string]int64{"op": 50, "a": 10 + 2.5 + 2.5 - 4, "hot": 4, "b": 2.5 + 5 + 2.5 + 20, "leaf": 5}
	var sum int64
	for name, ns := range self {
		sum += ns
		if ns != want[name] {
			t.Errorf("self[%s] = %d, want %d", name, ns, want[name])
		}
	}
	if sum != 100 {
		t.Errorf("self times add up to %d, want the operation's 100", sum)
	}
}

// fakeScheme implements only noc.Scheme.
type fakeScheme struct{}

func (fakeScheme) Name() string              { return "fake" }
func (fakeScheme) Attach(*noc.Network) error { return nil }
func (fakeScheme) PreRouter(*noc.Network)    {}
func (fakeScheme) PostRouter(*noc.Network)   {}

func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	var ns atomic.Int64
	if _, ok := wrapScheme(fakeScheme{}, &ns).(checkpoint.Stateful); ok {
		t.Error("wrapper claims Stateful for a scheme that is not")
	}
	if q := wrapScheme(fakeScheme{}, &ns).(noc.QuiescentReporter); q.Quiescent() {
		t.Error("wrapper reports quiescent for a scheme without the method")
	}

	cfg := run16Config(defaultSeed)
	cfg.Rows, cfg.Cols = 4, 4
	plain, err := seec.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := seec.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := wrapped.Net
	net.Scheme = wrapScheme(net.Scheme, &ns)
	net.Traffic = wrapTraffic(net.Traffic, &ns)
	if _, ok := net.Scheme.(checkpoint.Stateful); !ok {
		t.Error("wrapped SEEC lost checkpoint.Stateful")
	}
	if _, ok := net.Traffic.(checkpoint.Stateful); !ok {
		t.Error("wrapped synthetic traffic lost checkpoint.Stateful")
	}
	tg := net.Traffic.(noc.ConcurrentGenerator)
	td := net.Traffic.(noc.ConcurrentDeliverer)
	if !tg.ConcurrentGenerate() || !td.ConcurrentDeliver() {
		t.Error("wrapped synthetic traffic lost concurrent generate/deliver")
	}
	wrapped.Synthetic.Pause()
	if !net.Traffic.(noc.IdleReporter).Idle() {
		t.Error("wrapped paused traffic does not report idle")
	}
	wrapped.Synthetic.Resume()

	plain.Run(3000)
	wrapped.Run(3000)
	if ns.Load() == 0 {
		t.Error("wrappers timed nothing")
	}
	var a, b bytes.Buffer
	if err := plain.SaveCheckpoint(&a); err != nil {
		t.Fatal(err)
	}
	if err := wrapped.SaveCheckpoint(&b); err != nil {
		t.Fatalf("checkpoint through wrappers: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("wrapped simulation diverged from the plain one")
	}
	restored, err := seec.NewSimFromCheckpoint(cfg, bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored.Net.Scheme = wrapScheme(restored.Net.Scheme, &ns)
	restored.Net.Traffic = wrapTraffic(restored.Net.Traffic, &ns)
	restored.Run(500)
	plain.Run(500)
	if !bytes.Equal(mustEncode(t, plain), mustEncode(t, restored)) {
		t.Error("a wrapped simulation restored from a checkpoint diverged")
	}
}

func mustEncode(t *testing.T, s *seec.Sim) []byte {
	b, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runWorkload runs w briefly with the default seed and returns what it
// measured.
func runWorkload(t *testing.T, w func(options, *outcome) error, name string, trace bool) *outcome {
	t.Helper()
	opt := options{workload: name, seed: defaultSeed, seconds: 1, trace: trace, dir: t.TempDir()}
	out := &outcome{layers: map[string]float64{}}
	if trace {
		out.spans = newTracer()
	}
	if err := w(opt, out); err != nil {
		t.Fatal(err)
	}
	if !out.correct() {
		t.Fatalf("trace=%v: failed=%d problems=%v", trace, out.failed, out.problems)
	}
	return out
}

// The digest checks inside the workloads compare against golden.go, so
// a traced run that passes them produced the untraced results.
func TestTracedDigestsEqualUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	for _, w := range []struct {
		name string
		run  func(options, *outcome) error
	}{{"run-16x16", runRun16}, {"seecd-mixed", runSeecd}} {
		t.Run(w.name, func(t *testing.T) {
			plain := runWorkload(t, w.run, w.name, false)
			if len(plain.opsCPU) == 0 || median(ms(plain.opsCPU)) <= 0 {
				t.Errorf("untraced run has no CPU time per operation: %v", plain.opsCPU)
			}
			out := runWorkload(t, w.run, w.name, true)
			if len(out.traced) == 0 {
				t.Error("no traced operations")
			}
		})
	}
}

// A traced seecd-mixed run reports the gateway's tail and seam
// metrics however short it is: its untraced phase runs until the p90
// has its samples, and runWorkload fails the run if the seams
// attributed fewer calls than the traced jobs made.
func TestSeecdTracedRunReportsTailAndSeams(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the gateway workload")
	}
	opt := options{workload: "seecd-mixed", seed: defaultSeed, seconds: 1, trace: true}
	out := runWorkload(t, runSeecd, opt.workload, true)
	if len(out.ops) < tailMinOps {
		t.Errorf("untraced phase ran %d operations, want at least %d", len(out.ops), tailMinOps)
	}
	m := metrics(opt, out)
	for _, name := range []string{"trace.untraced_op_ms_p90", "serve.wal_sync_us_p50", "serve.store_put_ms_p50",
		"serve.store_get_us_p50", "serve.run_ms_p50", "serve.queue_ms_p50", "serve.replay_ms", "self.wal.sync_ms"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v", name, m[name].Value)
		}
	}
}

func TestSeamShortfallIsAProblem(t *testing.T) {
	const ops = 3
	full := func() *seecdTrace {
		s := newSeecdTrace(newTracer())
		s.walSync = make([]float64, ops)
		s.runs = make([]float64, ops*seecdSimRuns)
		s.puts = make([]float64, ops*seecdSimRuns)
		s.gets = make([]float64, ops*seecdStoreReads)
		s.queue = make([]float64, ops)
		return s
	}
	out := &outcome{layers: map[string]float64{}}
	full().report(out, ops)
	if !out.correct() {
		t.Fatalf("full attribution reported problems: %v", out.problems)
	}
	for _, cut := range []func(*seecdTrace){
		func(s *seecdTrace) { s.walSync = s.walSync[1:] },
		func(s *seecdTrace) { s.runs = s.runs[1:] },
		func(s *seecdTrace) { s.puts = s.puts[1:] },
		func(s *seecdTrace) { s.gets = s.gets[1:] },
		func(s *seecdTrace) { s.queue = nil },
	} {
		s := full()
		cut(s)
		out := &outcome{layers: map[string]float64{}}
		s.report(out, ops)
		if out.correct() {
			t.Error("a seam that missed calls went unreported")
		}
	}
}

func TestTracedBatchRendersUntracedBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two sweep batches")
	}
	in := sweepInputsFor(defaultSeed)
	plain, err := coldBatch(in, t.TempDir(), nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := digestOf(plain.render); got != goldens["sweep-cold"] {
		t.Errorf("untraced digest %s, recorded %s", got, goldens["sweep-cold"])
	}
	st := newSweepTrace(newTracer())
	traced, err := coldBatch(in, t.TempDir(), st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.render, traced.render) {
		t.Error("traced batch rendered different tables")
	}
	if len(st.cellMs) != sweepJobs {
		t.Errorf("traced %d cells, want %d", len(st.cellMs), sweepJobs)
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	e2e := metrics(options{}, &outcome{layers: map[string]float64{}})
	if len(e2e) != len(bj.EndToEnd) {
		t.Errorf("program reports %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(bj.EndToEnd))
	}
	for _, m := range bj.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): program has %+v", m.Name, m.Unit, got)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		if l := layerMetrics[i]; m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, l)
		}
	}
}
