#!/usr/bin/env bash
# Builds the benchmark against the sources of the checkout it sits in and
# runs it from the checkout root with the given flags, for example
#
#   bash bench/run.sh --workload paper_voip --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh --seed 1 --out results.jsonl     # every workload
#   bash bench/run.sh --compare parent.jsonl change.jsonl
#
# Build cache, binary and traces stay under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
