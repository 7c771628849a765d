#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build outputs, the Go build cache and
# run files all stay under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/gocache" "$build/gopath" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" TMPDIR="$build/tmp" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$build/applab-bench" .)
exec "$build/applab-bench" "$@"
