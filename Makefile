GO ?= go

.PHONY: build test short race check bench benchdiff benchgate figures

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# Race-detector pass over the short suite; see ci.sh for why -short.
race:
	$(GO) test -race -short ./...

# The tier-1 gate: everything ci.sh runs (build, vet, test, race).
check:
	./ci.sh

# Step-benchmark record: machine-readable ns/op + allocs/op for the
# simulator hot path, for diffing across commits. Five samples per
# benchmark: the record keeps the median, min and max ns/op.
BENCH = $(GO) test -bench 'Step|Table3Drain|LatencyCurve|RunIdle|WarmupFork|Checkpoint|FigAllPlanned|MapSerial|DecodeResult|StoreOpen|WALReplay|CacheKey' -benchmem -count 5 -run '^$$' ./...

bench:
	$(BENCH) | $(GO) run ./cmd/benchjson > BENCH_step.json
	@cat BENCH_step.json

# Rerun the step benchmarks and diff against the checked-in record
# without touching it: per-benchmark median ns/op, ranges and allocs/op.
benchdiff:
	$(BENCH) | $(GO) run ./cmd/benchjson -compare BENCH_step.json

# benchdiff as a gate: exit non-zero if any benchmark's median ns/op
# regressed past 10% and its range no longer overlaps the record's.
benchgate:
	$(BENCH) | $(GO) run ./cmd/benchjson -compare BENCH_step.json -fail-above 10

# Regenerate the checked-in quick-scale results record.
figures:
	$(GO) run ./cmd/figures -fig all -scale quick > results/figures_quick.txt
