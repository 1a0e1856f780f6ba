# Developer entry points. `make check` is the gate CI (and reviewers)
# run: vet + staticcheck (when installed) + build + full test suite + the
# race detector over every package that spawns goroutines or is scraped
# concurrently (the lock-coupling tree, the parallel CTT engine, the KV
# server, the metrics/observability layer, and the root-level integration
# tests).

GO ?= go

RACE_PKGS = ./internal/olc ./internal/pctt ./internal/store ./internal/kvserver ./internal/metrics ./internal/obs .

.PHONY: check vet staticcheck build test race allocs bench-module bench bench-batch bench-native bench-server benchdiff smoke-native smoke-diag smoke-shards smoke-pipeline smoke-health clean

check: vet staticcheck build test race allocs bench-module

vet:
	$(GO) vet ./...

# staticcheck is optional locally (skipped with a note when the binary is
# missing); CI installs it and runs the full analysis.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# Allocation budgets of the token path (testing.AllocsPerRun): 0 for a warm
# engine token op and a batch descent, 1 — the stored key — for parsing a
# point command, 0 for formatting its reply. Without -race, under which the
# tests skip themselves (`make test` runs them too; this names them).
allocs:
	$(GO) test -count=1 -run 'AllocBudget' ./internal/pctt ./internal/store ./internal/kvserver ./internal/olc

# The repository benchmark (BENCHMARK.json) builds from benchmark/, whose
# files are frozen between benchmark PRs: vetting and testing it here is
# what catches a serving-package API change that would break it.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Go-native microbenchmarks (testing.B): parallel CTT vs direct tree.
bench:
	$(GO) test -bench 'Mixed' -benchmem -run '^$$' .

# Batch-shared descent microbenchmarks: one shared lock-coupled traversal
# serving a sorted key batch vs per-op root descents, plus the anchored
# (hot-node residency) variant. -benchtime=100x keeps it a functional
# exercise in CI rather than a timing claim.
bench-batch:
	$(GO) test -bench 'BenchmarkBatchDescent' -benchmem -benchtime=100x -run '^$$' ./internal/olc

# The native experiment: real wall-clock P-CTT vs direct-olc comparison,
# machine-readable results in BENCH_native.json. SEED picks the workload
# seed (default 1), so `make bench-native SEED=7` measures a different
# key/op stream without touching the recorded default-seed report flow.
SEED ?= 1

bench-native:
	$(GO) run ./cmd/dcart-bench -exp native -seed $(SEED) -json

# The server experiment: pipelined vs lockstep wire over loopback TCP,
# all three store topologies, machine-readable results in
# BENCH_server.json. Honors SEED like bench-native.
bench-server:
	$(GO) run ./cmd/dcart-bench -exp server -seed $(SEED) -json

# Diff two benchmark reports (ops/sec and p99 movement per row):
# make benchdiff A=BENCH_server.json B=/tmp/BENCH_server.json
benchdiff:
	$(GO) run ./scripts/benchdiff.go $(A) $(B)

# Scaled-down native run for CI: exercises the whole measured pipeline
# (dispatch, combine windows, stealing, latency split) end to end in a few
# seconds without pretending the numbers are stable on shared runners. No
# -json: CI must never overwrite the recorded BENCH_native.json.
smoke-native:
	$(GO) run ./cmd/dcart-bench -exp native -keys 20000 -ops 100000

# Diagnostics smoke: run the native benchmark with the observability
# endpoint enabled and scrape /metrics mid-run, checking the P-CTT series
# are live (gauges, latency histograms, trace spans).
smoke-diag:
	./scripts/smoke_diag.sh

# Sharded-server smoke: boot dcart-kv with -shards 4 (one batching engine
# per shard), run a TCP protocol round-trip including a cross-shard
# ordered merge, scrape the per-shard /metrics groups, and verify the
# per-shard snapshot files on graceful shutdown.
smoke-shards:
	./scripts/smoke_shards.sh

# Pipelined-wire smoke: boot dcart-kv at pipeline depth 64, blind-write a
# deep command burst over raw TCP, and verify the responses come back in
# exact command order with the /metrics pipeline series live.
smoke-pipeline:
	./scripts/smoke_pipeline.sh

# Health/flight-recorder smoke: boot dcart-kv with the health engine and a
# flight-recorder directory, verify the /healthz JSON verdict settles on
# ok, trigger a bundle dump over HTTP, and validate its contents and the
# rate limit.
smoke-health:
	./scripts/smoke_health.sh

clean:
	rm -f repro.test BENCH_native.json
