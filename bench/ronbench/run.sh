#!/usr/bin/env bash
# Builds ronbench from source and runs it with the arguments given:
#
#   bash bench/ronbench/run.sh --workload paper_sweep --seed 1 --seconds 10 --trace 0
#
# This is the command BENCHMARK.json declares. It runs from the root of
# a checkout and keeps everything it writes inside it: the Go build
# cache, the compiler's temporaries, the binary and the benchmark's
# scratch files all live under .bench_build/.
set -euo pipefail

root=$PWD
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ]; then
	echo "ronbench: run from the root of a checkout that holds the repository's sources (go.mod, internal/, experiment/)" >&2
	exit 2
fi
mkdir -p "$build/gocache" "$build/gotmp" "$build/ronbench"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -buildvcs=false -o "$build/ronbench/ronbench" ./bench/ronbench
exec "$build/ronbench/ronbench" -work "$build/ronbench" "$@"
