#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Every file the build writes (binary, Go build cache and
# temporary files, Go tool config) stays under .bench_build at the
# repository root.
#
#   bash perfbench/run.sh --workload cold-skew --seed 1 --seconds 36 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
