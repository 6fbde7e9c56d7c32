GO ?= go

.PHONY: all build verify test race vet bench bench-sched bench-shard bench-fleet bench-fault bench-analysis bench-all bench-check bench-compare bench-compare-shard bench-smoke serve-smoke fuzz-smoke

all: build

build:
	$(GO) build ./...

# Tier-1 verify: everything must stay green (see ROADMAP.md).
# bench-smoke compiles and runs every benchmark once so a broken
# benchmark (or a perf-path regression that panics) fails the gate
# without paying for real measurement runs. serve-smoke exercises the
# service mode end to end in-process.
verify: vet build test race bench-smoke serve-smoke

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# fuzz-smoke runs each native fuzz target for a short while; plain
# `go test` already runs their seed corpora. Go fuzzes one target per
# invocation. A crasher lands in the package's testdata/fuzz directory:
# commit it, and it runs as a regression test from then on.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDeframerFeed$$' -fuzztime 10s ./internal/ppp
	$(GO) test -run '^$$' -fuzz '^FuzzAppendFrame$$' -fuzztime 10s ./internal/ppp
	$(GO) test -run '^$$' -fuzz '^FuzzSchedulerDifferential$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalPooled$$' -fuzztime 10s ./internal/netsim
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/testbed

# serve-smoke runs the measurement-service mode end to end in one
# process: start the control plane, submit two declarative specs
# concurrently, stream one job's live QoS windows to completion over
# SSE, prove the HTTP result byte-identical to a one-shot run of the
# same spec, scrape /v1/metrics, and check that graceful shutdown
# drains a queued job instead of dropping it.
serve-smoke:
	$(GO) run ./cmd/experiments -serve-smoke

# bench times the sequential vs. pooled repetition schedule of Figure 1
# (5 reps) and records the comparison, including the core count, in
# BENCH_parallel.json.
bench:
	$(GO) run ./cmd/experiments -figure 1 -reps 5 -dur 60s -bench-parallel BENCH_parallel.json

# bench-sched times the sim kernel on the paper's VoIP/UMTS cell with
# buffer pooling off (nopool) and on (pool, the shipping
# configuration), verifies both decode identically, and records the
# comparison in BENCH_sched.json.
bench-sched:
	$(GO) run ./cmd/experiments -bench-sched BENCH_sched.json -dur 30s -reps 3

# bench-shard times the 4-cell scale-out scenario on one loop vs one
# shard per cell plus the wired core — under the global lockstep and
# the dynamic per-shard-horizon window policies — verifies every
# partitioning produces byte-identical results, counts engine windows
# on the idle-fleet leg (24k idle + 1000 population per cell, no
# active flows) under global vs dynamic, and records the comparison (including the core count —
# speedup needs real cores) in BENCH_shard.json.
bench-shard:
	$(GO) run ./cmd/experiments -bench-shard BENCH_shard.json -cells 4 -terminals 2 -dur 30s

# bench-fleet measures the fleet scale-out: 4 cells x (2 active +
# 24000 idle + 1000 population) = 100,008 terminals over a 55 s
# horizon, the per-terminal footprint of the compact idle
# representation vs the eager full-stack build, peak RSS, the
# population model's differential validation against real dialed
# terminals, and the 1-vs-N-shard identity check. The committed
# BENCH_fleet.json is validated by bench_fleet_schema_test.go on every
# `make test`, and bench-smoke runs the fleet path once per verify.
bench-fleet:
	$(GO) run ./cmd/experiments -bench-fleet BENCH_fleet.json -cells 4 -terminals 2 -fleet 24000 -population 1000 -dur 30s

# bench-compare-shard validates the committed shard artifact: both
# policies recorded byte-identical results, dynamic granted no more
# windows than global, the idle-fleet leg shows the >= 5x dynamic
# window reduction against global, and on >= 4-core artifacts the
# dynamic wall time is within 1.05x of the global one — per-shard
# horizons only remove synchronization, so a real slowdown is a
# regression. Run it before committing changes to the shard engine.
bench-compare-shard:
	$(GO) run ./cmd/experiments -bench-shard-compare BENCH_shard.json

# bench-all regenerates every committed benchmark artifact in one go,
# then runs the aggregate identity gate: each BENCH_*.json must parse
# and every *_identical field in every artifact must be true. Use it
# when re-baselining on a new machine; bench-check alone validates the
# committed artifacts without the (long) measurement runs.
bench-all: bench bench-sched bench-shard bench-fleet bench-fault bench-analysis bench-check

bench-check:
	$(GO) run ./cmd/experiments -bench-check BENCH_parallel.json,BENCH_sched.json,BENCH_shard.json,BENCH_fleet.json,BENCH_fault.json,BENCH_analysis.json

# bench-fault proves the fault layer's two claims and records the
# evidence in BENCH_fault.json: an explicitly armed empty schedule is
# byte-identical to a plain run, and under the drops preset with
# self-healing on, every carrier drop is healed by a supervised redial
# with the outage on the availability books. The committed artifact is
# validated by bench_fault_schema_test.go on every `make test`, and
# bench-smoke runs the same fault/recovery path once per verify.
bench-fault:
	$(GO) run ./cmd/experiments -bench-fault BENCH_fault.json -dur 60s

# bench-analysis times the batch QoS decode against the streaming
# decoder over identical paper-scale logs and records the evidence in
# BENCH_analysis.json: exact-mode streaming is byte-identical to batch,
# sketch mode matches on everything but the four estimated percentiles
# (each within the declared error bound), the stream decoder retains
# O(windows + flows) bytes vs the batch pipeline's O(packets) logs, and
# the single streaming pass costs no more wall time than sort + decode.
# The committed artifact is validated by bench_analysis_schema_test.go
# on every `make test`.
bench-analysis:
	$(GO) run ./cmd/experiments -bench-analysis BENCH_analysis.json -dur 120s

# bench-compare re-measures the scheduler benchmark with the same
# parameters as bench-sched and fails when the shipping configuration
# (pool) is more than 25% slower per run than the committed
# BENCH_sched.json — run it before committing changes to the sim kernel.
bench-compare:
	$(GO) run ./cmd/experiments -bench-sched-compare BENCH_sched.json -dur 30s -reps 3
