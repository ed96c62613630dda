#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload static_hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# every file a run generates stay under .bench_build/perfbench.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# A pure-Go build needs no C compiler and writes nothing outside $out.
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
# The go command keeps its configuration and telemetry under the user's
# config directory; point that into the build directory too.
(cd "$root/perfbench" && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
