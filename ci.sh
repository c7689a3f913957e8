#!/bin/sh
# Tier-1 verify: build, vet, the full test suite, then the race
# detector. The race pass uses -short: the runner, schemes and
# simulator cores still get full -race coverage, while the heavyweight
# sweep regenerations (quick-scale determinism, golden CLI runs,
# application studies) skip — they rerun identical code over more
# cycles and would multiply the race pass by an hour.
set -eu
go build ./...
go vet ./...
# Formatting gate: every Go source file must be gofmt-clean (the
# benchmark's build directory is skipped; it is not source).
unformatted=$(find . -name '*.go' -not -path './.bench_build/*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
    echo "ci: files not gofmt-clean (run gofmt -w):" >&2
    echo "$unformatted" >&2
    exit 1
fi
go test -timeout 30m ./...
# GOMAXPROCS=4 so the race pass sees real parallelism even on 1-CPU CI
# boxes: the runner and planner worker pools, the seecd gateway workers
# and the telemetry bus run goroutines concurrently, and their races
# only show when those goroutines actually overlap. (A single
# simulation steps on one goroutine.)
GOMAXPROCS=4 go test -race -short -timeout 30m ./...
# Fork-unit race leg: a warmup-shared family's warmup unit and its fork
# units share one snapshot and one ready signal across workers. Ten
# rounds at GOMAXPROCS=4 on 4x4 meshes give the race detector many
# interleavings of publish, wait and release, including a warmup that
# fails or panics and a fork that times out. (The -short race pass
# above runs these tests once too; none of them skips in -short.)
GOMAXPROCS=4 go test -race -count=10 -run 'TestForkUnit' -timeout 10m ./internal/plan
# Compile-and-smoke the step benchmarks (one iteration, no -run match):
# a broken benchmark otherwise only surfaces when someone profiles.
go test -bench . -benchtime 1x -run XXX ./internal/noc
# Live-telemetry smoke: boot a real sweep with -status, poll /status
# until a job completes, and assert /metrics parses as Prometheus text
# and /debug/pprof answers — the observability stack end to end. (The
# full ./... pass above also runs this; the dedicated leg keeps the
# endpoint contract loud when someone filters the suite.)
go test -run 'TestStatusEndpointSmoke' -timeout 10m ./cmd/figures
# Crash-safety gates. The chaos suite sweeps a simulated kill -9 across
# every write-path operation of the gateway (WAL appends, store
# renames, dir fsyncs) under the race detector, asserting acknowledged
# jobs survive and results stay byte-identical. The seecd leg then does
# it for real: boot the daemon, submit a sweep, SIGKILL mid-simulation,
# restart, and assert checkpoint resume + byte-identical results + a
# pure cache hit (zero simulation cycles) on resubmission.
GOMAXPROCS=4 go test -race -timeout 10m ./internal/serve/chaostest
go test -run 'TestSeecdCrashRestartResume' -timeout 10m ./cmd/seecd
# Planner warm-cache gate: the same figure run twice against one cache
# directory must simulate everything the first time, nothing the second
# time, and print byte-identical tables both times — the end-to-end
# contract of the memoizing sweep planner (DESIGN.md §13).
PLANCACHE=$(mktemp -d)
go run ./cmd/figures -fig table1 -scale quick -cache-dir "$PLANCACHE" \
    > "$PLANCACHE/run1.out" 2> "$PLANCACHE/run1.err"
go run ./cmd/figures -fig table1 -scale quick -cache-dir "$PLANCACHE" \
    > "$PLANCACHE/run2.out" 2> "$PLANCACHE/run2.err"
grep -q 'simulated=0' "$PLANCACHE/run2.err" || {
    echo "ci: warm planner cache still simulated jobs:" >&2
    cat "$PLANCACHE/run2.err" >&2
    exit 1
}
cmp "$PLANCACHE/run1.out" "$PLANCACHE/run2.out" || {
    echo "ci: warm-cache figures output differs from cold run" >&2
    exit 1
}
rm -rf "$PLANCACHE"
# Fuzz smoke: a few seconds per fuzzer over the parsers and invariants
# that take arbitrary input (fault specs, histograms, traffic
# destinations) and over checkpoint round trips. Regressions found
# here land in testdata/ corpora.
go test -fuzz FuzzCheckpointRoundTrip -fuzztime 10s -run XXX .
go test -fuzz FuzzFaultSpec -fuzztime 10s -run XXX ./internal/fault
go test -fuzz FuzzJobSpec -fuzztime 10s -run XXX ./internal/serve
go test -fuzz FuzzHistogram -fuzztime 10s -run XXX ./internal/stats
go test -fuzz FuzzDestInRange -fuzztime 10s -run XXX ./internal/traffic
echo "ci: all checks passed"
