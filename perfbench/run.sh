#!/bin/sh
# run.sh — build the perfbench benchmark from source and run one workload.
#
# Usage, from the root of a checkout:
#   sh perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the checkout: the Go build cache, the benchmark binary, result-cache
# directories, and one result (and, when traced, span) file per run.
set -eu

root="$(pwd)"
if [ ! -f perfbench/go.mod ]; then
    echo "perfbench: run from the root of the checkout" >&2
    exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --root "$root" --out "$build/results" "$@"
