package main

import (
	"reflect"
	"strings"
	"testing"
)

// transcript is canned `go test -bench -benchmem -count 3` output over
// two packages, at GOMAXPROCS 2, with a custom metric and a line that
// is not a result.
const transcript = `goos: linux
goarch: amd64
pkg: seec/internal/noc
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkStep/rate=0.20-2         	   25000	     46100 ns/op	       3 B/op	       0 allocs/op
BenchmarkStep/rate=0.20-2         	   26000	     41200 ns/op	       3 B/op	       0 allocs/op
BenchmarkStep/rate=0.20-2         	   24000	     44000 ns/op	       5 B/op	       1 allocs/op
BenchmarkStepTraced/rate=0.60-2   	    1000	    900000 ns/op
PASS
ok  	seec/internal/noc	12.3s
pkg: seec
BenchmarkCheckpointSave-2   	    2000	    450000 ns/op	 117107 ckpt-bytes	  548417 B/op	      48 allocs/op
BenchmarkCheckpointSave-2   	    2000	    470000 ns/op	 117109 ckpt-bytes	  548417 B/op	      48 allocs/op
BenchmarkFigAllPlanned/cold 	       1	4762793069 ns/op
--- BENCH: BenchmarkFigAllPlanned/cold
ok  	seec	20.1s
`

func TestParseKeepsEverySample(t *testing.T) {
	doc, err := parse(strings.NewReader(transcript))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Meta.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu %q", doc.Meta.CPU)
	}
	if len(doc.Benchmarks) != 4 {
		t.Fatalf("%d benchmarks, want 4: %v", len(doc.Benchmarks), doc.Benchmarks)
	}
	step := doc.Benchmarks["seec/internal/noc.BenchmarkStep/rate=0.20"]
	want := result{N: 3, NsOp: 44000, NsOpMin: 41200, NsOpMax: 46100,
		BOp: 3, AllocsOp: 1, Iters: 25000, GOMAXPROCS: 2}
	if !reflect.DeepEqual(step, want) {
		t.Errorf("step entry %+v, want %+v", step, want)
	}
	ck := doc.Benchmarks["seec.BenchmarkCheckpointSave"]
	if ck.N != 2 || ck.NsOp != 460000 || ck.NsOpMin != 450000 || ck.NsOpMax != 470000 {
		t.Errorf("even sample count: %+v", ck)
	}
	if got := ck.Metrics["ckpt-bytes"]; got != 117108 {
		t.Errorf("ckpt-bytes median %v, want 117108", got)
	}
	if ck.AllocsOp != 48 || ck.BOp != 548417 {
		t.Errorf("checkpoint memory columns %+v", ck)
	}
	cold := doc.Benchmarks["seec.BenchmarkFigAllPlanned/cold"]
	if cold.N != 1 || cold.GOMAXPROCS != 1 || cold.NsOp != 4762793069 || cold.NsOpMin != cold.NsOpMax {
		t.Errorf("single sample without a procs suffix: %+v", cold)
	}
	if tr := doc.Benchmarks["seec/internal/noc.BenchmarkStepTraced/rate=0.60"]; tr.GOMAXPROCS != 2 || tr.N != 1 {
		t.Errorf("single-sample entry %+v", tr)
	}
}

func TestGateNeedsSeparatedRegression(t *testing.T) {
	rec := func(entries map[string]result) record { return record{Benchmarks: entries} }
	old := rec(map[string]result{
		"a": {N: 5, NsOp: 100, NsOpMin: 95, NsOpMax: 110},
		"b": {N: 5, NsOp: 100, NsOpMin: 95, NsOpMax: 110},
		"c": {N: 5, NsOp: 100, NsOpMin: 95, NsOpMax: 110},
		"d": {NsOp: 100}, // a record from before samples were kept
		"e": {NsOp: 100},
	})
	fresh := rec(map[string]result{
		"a": {N: 5, NsOp: 130, NsOpMin: 105, NsOpMax: 140}, // past the gate, ranges overlap
		"b": {N: 5, NsOp: 130, NsOpMin: 115, NsOpMax: 140}, // past the gate, separated
		"c": {N: 5, NsOp: 105, NsOpMin: 120, NsOpMax: 125}, // separated but under the gate
		"d": {N: 5, NsOp: 120, NsOpMin: 101, NsOpMax: 130}, // old range is the single value
		"e": {N: 5, NsOp: 120, NsOpMin: 99, NsOpMax: 130},
	})
	var out strings.Builder
	regressed := printDiff(&out, "old.json", old, fresh, 10)
	if len(regressed) != 2 || !strings.HasPrefix(regressed[0], "b:") || !strings.HasPrefix(regressed[1], "d:") {
		t.Fatalf("regressed %q, want b and d", regressed)
	}
	if got := printDiff(&out, "old.json", old, fresh, 0); len(got) != 0 {
		t.Fatalf("report-only diff flagged %q", got)
	}
	if !strings.Contains(out.String(), "[95, 110] n=5") || !strings.Contains(out.String(), "[100, 100] n=1") {
		t.Errorf("diff does not print the ranges:\n%s", out.String())
	}
}

func TestDiffListsOneSidedBenchmarks(t *testing.T) {
	old := record{Benchmarks: map[string]result{"gone": {NsOp: 1}}}
	fresh := record{Benchmarks: map[string]result{"new": {N: 1, NsOp: 2, NsOpMin: 2, NsOpMax: 2, AllocsOp: 3}}}
	var out strings.Builder
	if r := printDiff(&out, "old.json", old, fresh, 10); len(r) != 0 {
		t.Fatalf("one-sided benchmarks flagged: %q", r)
	}
	for _, want := range []string{"gone", "new", " 3"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff lacks %q:\n%s", want, out.String())
		}
	}
}
