#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Run from the repository root:
#
#   bash benchmark/run.sh --workload keycount_mem --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --seed 1            # every workload, one process each
#   bash benchmark/run.sh compare A.json B.json
#
# Everything the build writes (Go build cache, module cache, the go command's
# own config and telemetry counters, the binary) stays under .bench_build/ in
# the checkout, and no go env file or GOFLAGS from the host leaks in.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/naiad-benchmark" .)
cd "$root"
exec "$build/naiad-benchmark" "$@"
