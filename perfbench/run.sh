#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of
# the repository:
#
#   bash perfbench/run.sh --workload hash-cold --seed 2018 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (Go build cache, the
# binary, scratch stores, reference digests, trace files) goes under
# .bench_build/perfbench in the current directory.
set -euo pipefail

root="$(pwd)"
work="$root/.bench_build/perfbench"
mkdir -p "$work"

export GOCACHE="$work/gocache"
export GOPATH="$work/gopath"
export GOMODCACHE="$work/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -buildvcs=false -o "$work/perfbench" .) >&2
exec "$work/perfbench" -work "$work" "$@"
