#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Everything it builds or writes stays under
# .bench_build/ in the current directory (Go build cache included), so a
# fresh checkout pays one cold build and later runs reuse it.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -root "$root" "$@"
