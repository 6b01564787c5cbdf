#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from
# the repository root:
#
#   bash e2ebench/run.sh --workload sbpd-stream --seed 1 --seconds 25 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory: the Go build cache, the binary, the traced JSONL and the
# workloads' scratch files. The module builds against the repository one
# directory up, so outside a full checkout the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$(dirname "$0")" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --out "$build/out" "$@"
