#!/usr/bin/env bash
# Builds aelite-bench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash aelite-bench/run.sh --workload sec7_tx --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# working directory (Go build cache, temp files, the binary, spans and
# CPU profiles).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "aelite-bench: run from the repository root (no go.mod and internal/ here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root/aelite-bench" && go build -o "$out/aelite-bench" .)
exec "$out/aelite-bench" -out "$out" "$@"
