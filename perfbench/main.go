// Command perfbench is the repository benchmark: four workloads that
// drive the simulator only through its public entry points and seams
// (seec.NewSim/Sim.Run, the exp generators with a plan.Planner, and the
// serve gateway over HTTP), time them, check every operation's output,
// and print one JSON result line.
//
//	perfbench --workload run-16x16 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// installs timing wrappers, a telemetry bus and seams, keeps spans in
// memory, writes them to .bench_build/trace/ when the run ends, and
// reports per-layer metrics. See README.md for the workloads and why
// each was chosen.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose result digests are recorded in
// golden.go; heldOutSeed is never used while tuning a change and is
// kept for validating a claimed gain on inputs the change has not seen.
const (
	defaultSeed = 1
	heldOutSeed = 9001
)

// options is one invocation's arguments.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	dir      string // private state directory of this run, removed at exit
	// exe is this program's path, for the set-up children; "" runs
	// every set-up in this process (set-up children and tests).
	exe   string
	child bool // time one set-up, print it and exit (--setup-child)
}

// outcome is what one workload run measured.
type outcome struct {
	setups    []opTime
	parts     map[string][]float64 // set-up breakdown, one sample per set-up
	ops       []time.Duration      // wall time of the untraced operations
	opsCPU    []time.Duration      // process CPU time per untraced operation
	traced    []time.Duration      // wall time of the traced operations (--trace 1 only)
	attempted int
	failed    int
	problems  []string
	layers    map[string]float64
	spans     *tracer
	rssMB     float64 // peak resident set size at the end of the run
}

// problem records a failed output check.
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// part records one set-up's sample of a set-up breakdown metric.
func (o *outcome) part(name string, v float64) {
	if o.parts == nil {
		o.parts = map[string][]float64{}
	}
	o.parts[name] = append(o.parts[name], v)
}

// correct reports whether every operation and every output check passed.
func (o *outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }

// workload is one benchmark input set.
type workload struct {
	name string
	run  func(opt options, out *outcome) error
}

var workloads = []workload{
	{"run-16x16", runRun16},
	{"sweep-cold", runSweepCold},
	{"sweep-warm", runSweepWarm},
	{"seecd-mixed", runSeecd},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: run-16x16, sweep-cold, sweep-warm or seecd-mixed")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	child := fs.Bool("setup-child", false, "time one set-up of the workload in this fresh process, print it and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintf(os.Stderr, "perfbench: --seconds %d must be at least 1\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "perfbench: --trace %d must be 0 or 1\n", *trace)
		return 2
	}
	base := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(base, w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	opt := options{workload: w.name, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir, child: *child}
	if !opt.child {
		if opt.exe, err = os.Executable(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	env := environment(opt)
	if !opt.child {
		fmt.Fprintf(os.Stderr, "perfbench: env %s\n", env)
	}
	out := &outcome{layers: map[string]float64{}}
	if opt.trace {
		out.spans = newTracer()
	}
	if err := w.run(opt, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if opt.child {
		return printChild(out)
	}
	if out.spans != nil {
		if err := writeSpans(opt, out.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			return 1
		}
	}
	if out.rssMB, err = peakRSSMB(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS:", err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	res := result{
		Correct:   out.correct(),
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics(opt, out),
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("env %s\n", env)
	fmt.Println(string(b))
	return 0
}

// metrics assembles the reported metrics: the end-to-end set for an
// untraced run, the per-layer set for a traced one.
func metrics(opt options, out *outcome) map[string]metric {
	m := map[string]metric{}
	if !opt.trace {
		var cpu, wall []float64
		for _, t := range out.setups {
			cpu = append(cpu, t.cpu.Seconds())
			wall = append(wall, t.wall.Seconds())
		}
		fmt.Fprintf(os.Stderr, "perfbench: set-up CPU s %.4g, wall s %.4g\n", cpu, wall)
		fmt.Fprintf(os.Stderr, "perfbench: wall op_ms_p50 = %.6g over %d operations\n", median(ms(out.ops)), len(out.ops))
		m["setup_s"] = metric{median(cpu), "s"}
		m["op_cpu_ms_p50"] = metric{median(ms(out.opsCPU)), "ms"}
		m["peak_rss_mb"] = metric{out.rssMB, "MB"}
		return m
	}
	for name, xs := range out.parts {
		out.layers[name] = median(xs)
	}
	tr, un := ms(out.traced), ms(out.ops)
	out.layers["trace.op_ms_p50"] = median(tr)
	out.layers["trace.untraced_op_ms_p50"] = median(un)
	out.layers["trace.overhead_ms"] = median(tr) - median(un)
	out.layers["trace.op_ms_mean"] = mean(tr)
	out.layers["trace.ops"] = float64(len(tr))
	if p90, ok := tailP90(un); ok {
		out.layers["trace.untraced_op_ms_p90"] = p90
	}
	self := out.spans.selfByOp()
	for name, ns := range self {
		if name == "op" {
			name = "trace.other"
		} else {
			name = "self." + name
		}
		out.layers[name+"_ms"] = float64(ns) / float64(len(tr)) / 1e6
	}
	for _, l := range layerMetrics {
		m[l.name] = metric{out.layers[l.name], l.unit}
	}
	names := make([]string, 0, len(out.layers))
	for k := range out.layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "perfbench: layer %s = %.6g\n", k, out.layers[k])
	}
	return m
}

// writeSpans dumps the traced run's spans under .bench_build/trace/.
func writeSpans(opt options, t *tracer) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return t.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", opt.workload, opt.seed)))
}

// environment describes the host the run measured, truthfully: the
// GOMAXPROCS the process ran at, the CPUs it could use, the Go
// toolchain and the CPU model.
func environment(opt options) string {
	env := map[string]any{
		"workload":   opt.workload,
		"seed":       opt.seed,
		"seconds":    opt.seconds,
		"trace":      opt.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
	}
	b, _ := json.Marshal(env) // a map of basic values always marshals
	return string(b)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set size in MB: VmHWM,
// the high-water mark of this process image. (getrusage's maxrss would
// also count the shell that exec'd the benchmark.)
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// setUp times the workload's set-up k times, each the first in a fresh
// process, as a restart is: k-1 times in a child process
// (perfbench --setup-child) started for that one set-up, then once in
// this process. setup_s is the median of the k, so one slow start does
// not move it. setUp returns this process's instance; a child's ends
// with the child.
func setUp[T any](opt options, out *outcome, k int, setup func() (T, error)) (T, error) {
	if opt.exe != "" {
		for i := 1; i < k; i++ {
			if err := childSetUp(opt, out); err != nil {
				var zero T
				return zero, err
			}
		}
	}
	sw := startWatch()
	v, err := setup()
	out.setups = append(out.setups, sw.stop())
	return v, err
}

// childReport is what a set-up child prints as its last line.
type childReport struct {
	WallNs int64                `json:"wall_ns"`
	CPUNs  int64                `json:"cpu_ns"`
	Parts  map[string][]float64 `json:"parts"`
}

// childSetUp runs one set-up in a child process and adds its samples
// to out. The child runs to completion before the next one starts.
func childSetUp(opt options, out *outcome) error {
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	cmd := exec.Command(opt.exe, "--workload", opt.workload, "--seed", strconv.FormatUint(opt.seed, 10),
		"--seconds", strconv.Itoa(opt.seconds), "--trace", trace, "--setup-child")
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("set-up child: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var r childReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil || r.CPUNs <= 0 {
		return fmt.Errorf("set-up child printed %q", lines[len(lines)-1])
	}
	out.setups = append(out.setups, opTime{time.Duration(r.WallNs), time.Duration(r.CPUNs)})
	for name, xs := range r.Parts {
		for _, x := range xs {
			out.part(name, x)
		}
	}
	return nil
}

// printChild prints a set-up child's report of its one set-up.
func printChild(out *outcome) int {
	t := out.setups[0]
	b, err := json.Marshal(childReport{t.wall.Nanoseconds(), t.cpu.Nanoseconds(), out.parts})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// measure runs op back to back until the run's seconds have passed and
// at least minOps operations ran. op times its own measured region and
// checks its output outside it; an error is a failed operation. In a
// traced run even operations run traced and odd ones untraced, so the
// tracing overhead is a paired difference under the same host drift.
func measure(opt options, out *outcome, minOps int, op func(i int, traced bool) (opTime, error)) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	deadline := time.Now().Add(time.Duration(opt.seconds) * time.Second)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		traced := opt.trace && i%2 == 0
		t, err := op(i, traced)
		out.attempted++
		if err != nil {
			out.failed++
			out.problem("op %d: %v", i, err)
		}
		if traced {
			out.traced = append(out.traced, t.wall)
		} else {
			out.ops = append(out.ops, t.wall)
			out.opsCPU = append(out.opsCPU, t.cpu)
		}
	}
	out.noteMem(&mem)
}

// noteMem records allocation and GC counts per operation since before.
func (o *outcome) noteMem(before *runtime.MemStats) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	n := float64(o.attempted)
	o.layers["runtime.alloc_mb_per_op"] = float64(now.TotalAlloc-before.TotalAlloc) / (1 << 20) / n
	o.layers["runtime.gc_per_op"] = float64(now.NumGC-before.NumGC) / n
}
