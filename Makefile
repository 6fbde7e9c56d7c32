GO ?= go

.PHONY: all build verify fmt test race vet golden bench bench-module bench-smoke serve-smoke fuzz-smoke

all: build

build:
	$(GO) build ./...

# Tier-1 verify: everything must stay green (see ROADMAP.md).
# bench-smoke compiles and runs every benchmark once so a broken
# benchmark (or a perf-path regression that panics) fails the gate
# without paying for real measurement runs. serve-smoke exercises the
# service mode end to end in-process. golden checks the full-length
# report digests. fmt fails on any file gofmt would change.
# bench-module vets and tests the bench/ module, its own Go module that
# the root ./... patterns do not reach.
verify: fmt vet build test race golden bench-module bench-smoke serve-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# golden runs the full-length golden report set (the paper cells at 20
# repetitions, 4x16 multi-cell at 120 s, the 100k-terminal fleet) and
# checks each report's SHA-256 against internal/control/testdata/golden.
# Plain `go test` runs the short-duration set; this one runs without
# -race because the race detector would make it take minutes.
golden:
	$(GO) test -count 1 -run '^TestGoldenReports$$' ./internal/control -golden.full

bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# fuzz-smoke runs each native fuzz target for a short while; plain
# `go test` already runs their seed corpora. Go fuzzes one target per
# invocation, so the targets are listed with `go test -list` and run in
# turn: a new Fuzz function joins without an edit here. A crasher lands
# in the package's testdata/fuzz directory: commit it, and it runs as a
# regression test from then on.
fuzz-smoke:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ { f[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }' | \
	while read pkg target; do \
		echo "fuzz $$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s $$pkg || exit 1; \
	done

# serve-smoke runs the measurement-service mode end to end in one
# process (TestServeSmoke in cmd/experiments): start the control plane,
# submit two declarative specs concurrently, stream one job's live QoS
# windows to completion over SSE, prove the HTTP result byte-identical
# to a one-shot run of the same spec, scrape /v1/metrics, and check that
# graceful shutdown drains a queued job instead of dropping it.
serve-smoke:
	$(GO) test -count=1 -run '^TestServeSmoke$$' ./cmd/experiments

# bench runs every workload of the bench/ module (see bench/README.md):
# wall time, CPU, allocation and peak RSS end to end, each output checked
# byte for byte. It is the only harness that measures time or memory.
bench:
	bash bench/run.sh
