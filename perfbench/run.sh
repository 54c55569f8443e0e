#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root; every argument is passed through:
#
#   bash perfbench/run.sh --workload server-mixed --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, scratch data, span traces and the
# count ledger all stay under .bench_build/perfbench in the working
# directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --work "$out" "$@"
