#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run it from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload paper-fmnist --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the go command's telemetry
# counters and the binary all go under .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/cache" "$out/tmp"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
