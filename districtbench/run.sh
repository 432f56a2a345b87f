#!/usr/bin/env bash
# Builds the district benchmark from this checkout's sources and runs one
# workload. Every build and run artifact stays under .bench_build/.
#
#   bash districtbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off GOFLAGS=
(cd "$root/districtbench" && go build -o "$build/districtbench" .) >&2
exec "$build/districtbench" -root "$root" "$@"
