#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it there; every argument is passed to the benchmark binary, e.g.
#
#   bash perfbench/run.sh --workload train-comm-ecs --seed 1 --seconds 15 --trace 0
#
# The Go build cache and temporary files stay under .bench_build/ too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
