// Command benchjson converts `go test -bench` output on stdin into a
// JSON object on stdout:
//
//	go test -bench Step -benchmem -count 5 -run '^$' ./internal/noc | benchjson
//
// yields
//
//	{
//	  "meta": {"timestamp": "...", "go_version": "go1.x"},
//	  "benchmarks": {"seec/internal/noc.BenchmarkStep/rate=0.02": {"n": 5, "ns_op": 16096, "ns_op_min": 15804, ...}}
//	}
//
// so perf records (BENCH_step.json) can be diffed across commits
// without parsing the text format again, and a stale record is
// self-describing about when and where it was taken. Every -count
// sample of a benchmark is kept: the entry records how many there were
// (n), the median ns/op with its min and max, and the largest
// allocs/op any sample saw.
//
// With -compare old.json the fresh run (still read as bench text on
// stdin) is instead diffed against a previously saved record: one line
// per benchmark with the median ns/op delta, both ranges and allocs/op,
// so `make benchdiff` answers "did this commit move the hot path"
// without eyeballing two JSON files. -fail-above turns it into a gate
// that fails only on a separated regression: the median grew past the
// threshold and the fresh range lies wholly above the old one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// result summarizes the samples of one benchmark. GOMAXPROCS is the
// per-benchmark value go test encodes as the name's trailing "-N"
// (absent when it was 1) — `go test -cpu 1,2` runs one benchmark at
// several values, so a single process-global number would be wrong.
// Records written before samples were kept have no n and no range; a
// missing range reads as the single value NsOp.
type result struct {
	N          int     `json:"n,omitempty"`
	NsOp       float64 `json:"ns_op"` // median over the samples
	NsOpMin    float64 `json:"ns_op_min,omitempty"`
	NsOpMax    float64 `json:"ns_op_max,omitempty"`
	BOp        float64 `json:"b_op,omitempty"`      // median
	AllocsOp   float64 `json:"allocs_op,omitempty"` // max over the samples
	Iters      int64   `json:"iters"`               // median
	GOMAXPROCS int     `json:"gomaxprocs"`

	// Metrics carries custom b.ReportMetric units verbatim (e.g. the
	// checkpoint benchmarks' "ckpt-bytes"), keyed by unit string; each
	// is the median over the samples.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// span returns the benchmark's ns/op range.
func (r result) span() (lo, hi float64) {
	if r.N == 0 {
		return r.NsOp, r.NsOp
	}
	return r.NsOpMin, r.NsOpMax
}

// meta records when/where the benchmarks ran. The cpu line of the
// bench output is folded in when present. GOMAXPROCS lives on each
// benchmark entry, not here.
type meta struct {
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	CPU       string `json:"cpu,omitempty"`
}

// record is the document benchjson emits.
type record struct {
	Meta       meta              `json:"meta"`
	Benchmarks map[string]result `json:"benchmarks"`
}

// sample is one parsed benchmark line.
type sample struct {
	nsOp, bOp, allocsOp float64
	iters               int64
	procs               int
	metrics             map[string]float64
}

func main() {
	compare := flag.String("compare", "", "path to a previous benchjson record; print per-benchmark deltas instead of JSON")
	failAbove := flag.Float64("fail-above", 0, "with -compare: exit non-zero if any benchmark's median ns/op regressed by more than this percentage and its range no longer overlaps the old one (0 = report only)")
	flag.Parse()
	if *failAbove < 0 {
		fmt.Fprintf(os.Stderr, "benchjson: -fail-above %g: must be non-negative\n", *failAbove)
		os.Exit(2)
	}
	if *failAbove > 0 && *compare == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -fail-above needs -compare")
		os.Exit(2)
	}
	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	doc.Meta.Timestamp = time.Now().UTC().Format(time.RFC3339)
	doc.Meta.GoVersion = runtime.Version()
	if *compare != "" {
		old, err := load(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		regressed := printDiff(os.Stdout, *compare, old, doc, *failAbove)
		if len(regressed) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed past the %+.1f%% gate with separated ranges:\n", len(regressed), *failAbove)
			for _, r := range regressed {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output and summarizes every benchmark's
// samples. Meta carries only the cpu line; the caller stamps the rest.
func parse(in io.Reader) (record, error) {
	doc := record{Benchmarks: make(map[string]result)}
	samples := make(map[string][]sample)
	pkg := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			doc.Meta.CPU = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		s := sample{iters: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				s.nsOp = v
			case "B/op":
				s.bOp = v
			case "allocs/op":
				s.allocsOp = v
			case "MB/s":
				// Throughput restates ns/op; skip it to keep entries lean.
			default:
				if s.metrics == nil {
					s.metrics = make(map[string]float64)
				}
				s.metrics[unit] = v
			}
		}
		name, procs := splitProcs(fields[0])
		s.procs = procs
		if pkg != "" {
			name = pkg + "." + name
		}
		samples[name] = append(samples[name], s)
	}
	if err := sc.Err(); err != nil {
		return record{}, err
	}
	for name, ss := range samples {
		doc.Benchmarks[name] = summarize(ss)
	}
	return doc, nil
}

// summarize folds one benchmark's samples into its record entry.
func summarize(ss []sample) result {
	col := func(get func(sample) float64) []float64 {
		v := make([]float64, len(ss))
		for i, s := range ss {
			v[i] = get(s)
		}
		sort.Float64s(v)
		return v
	}
	ns := col(func(s sample) float64 { return s.nsOp })
	allocs := col(func(s sample) float64 { return s.allocsOp })
	r := result{
		N:          len(ss),
		NsOp:       median(ns),
		NsOpMin:    ns[0],
		NsOpMax:    ns[len(ns)-1],
		BOp:        median(col(func(s sample) float64 { return s.bOp })),
		AllocsOp:   allocs[len(allocs)-1],
		Iters:      int64(median(col(func(s sample) float64 { return float64(s.iters) }))),
		GOMAXPROCS: ss[0].procs,
	}
	for unit := range ss[0].metrics {
		if r.Metrics == nil {
			r.Metrics = make(map[string]float64)
		}
		r.Metrics[unit] = median(col(func(s sample) float64 { return s.metrics[unit] }))
	}
	return r
}

// median of sorted, non-empty v.
func median(v []float64) float64 {
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// load reads a saved record.
func load(path string) (record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return record{}, err
	}
	var old record
	if err := json.Unmarshal(data, &old); err != nil {
		return record{}, fmt.Errorf("%s: %v", path, err)
	}
	return old, nil
}

// printDiff prints one line per benchmark comparing the saved record
// old (read from oldPath) with the fresh run: median ns/op with the
// percentage change (negative is faster), both ns/op ranges, and
// allocs/op. Benchmarks present on only one side are listed so a
// renamed or deleted benchmark can't silently vanish from the
// comparison. With failAbove > 0, benchmarks whose median grew by more
// than that percentage and whose fresh range lies wholly above the old
// one come back as regression descriptions for the caller's exit-status
// gate; a median that moved within overlapping ranges is noise.
func printDiff(w io.Writer, oldPath string, old, fresh record, failAbove float64) []string {
	names := make([]string, 0, len(fresh.Benchmarks)+len(old.Benchmarks))
	for name := range fresh.Benchmarks {
		names = append(names, name)
	}
	for name := range old.Benchmarks {
		if _, ok := fresh.Benchmarks[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "old: %s (%s)\nnew: %s (%s)\n\n",
		oldPath, old.Meta.Timestamp, "stdin", fresh.Meta.Timestamp)
	fmt.Fprintf(w, "%-64s %12s %12s %8s  %-25s %-25s %s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old range", "new range", "allocs/op")
	var regressed []string
	for _, name := range names {
		o, haveOld := old.Benchmarks[name]
		n, haveNew := fresh.Benchmarks[name]
		switch {
		case !haveOld:
			fmt.Fprintf(w, "%-64s %12s %12.0f %8s  %-25s %-25s %s\n",
				name, "-", n.NsOp, "new", "", spanText(n), allocDelta(false, true, o, n))
		case !haveNew:
			fmt.Fprintf(w, "%-64s %12.0f %12s %8s  %-25s %-25s %s\n",
				name, o.NsOp, "-", "gone", spanText(o), "", "")
		default:
			pct := "n/a"
			if o.NsOp != 0 {
				d := 100 * (n.NsOp - o.NsOp) / o.NsOp
				pct = fmt.Sprintf("%+.1f%%", d)
				_, oldHi := o.span()
				newLo, _ := n.span()
				if failAbove > 0 && d > failAbove && newLo > oldHi {
					regressed = append(regressed, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%s), range %s -> %s",
						name, o.NsOp, n.NsOp, pct, spanText(o), spanText(n)))
				}
			}
			fmt.Fprintf(w, "%-64s %12.0f %12.0f %8s  %-25s %-25s %s\n",
				name, o.NsOp, n.NsOp, pct, spanText(o), spanText(n), allocDelta(true, true, o, n))
		}
	}
	return regressed
}

// spanText formats a benchmark's ns/op range and sample count.
func spanText(r result) string {
	lo, hi := r.span()
	n := r.N
	if n == 0 {
		n = 1
	}
	return fmt.Sprintf("[%.0f, %.0f] n=%d", lo, hi, n)
}

// allocDelta formats the allocs/op side of a diff line: "old -> new"
// when it moved, the bare value when it held, empty when both sides
// are zero (the common case for the tuned hot paths, where printing
// "0 -> 0" per line would bury the one benchmark that regressed).
func allocDelta(haveOld, haveNew bool, o, n result) string {
	ov, nv := 0.0, 0.0
	if haveOld {
		ov = o.AllocsOp
	}
	if haveNew {
		nv = n.AllocsOp
	}
	switch {
	case ov == 0 && nv == 0:
		return ""
	case !haveOld || ov == nv:
		return fmt.Sprintf("%.0f", nv)
	default:
		return fmt.Sprintf("%.0f -> %.0f", ov, nv)
	}
}

// splitProcs splits go test's benchmark-name encoding of GOMAXPROCS —
// a trailing "-N" appended when N != 1 — into the bare name and N.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n < 1 {
		return name, 1
	}
	return name[:i], n
}
