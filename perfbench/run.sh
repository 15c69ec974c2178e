#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash perfbench/run.sh --workload cube-brush --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, logs and span files.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
