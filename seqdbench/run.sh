#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash seqdbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary,
# scratch databases and trace files all live under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/seqdbench" && go build -o "$out/seqdbench" .)
exec "$out/seqdbench" -work "$out" "$@"
