#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and runs
# it; every argument goes to lbicaperf (see bench/README.md). Run it from the
# repository root:
#
#   bash bench/run.sh --workload paper-read --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the go command's config and telemetry
# files and the benchmark's scratch files all stay in .bench_build at the
# root, so nothing is read or written outside the checkout apart from the Go
# toolchain itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off GOENV=off

(cd "$root/bench" && go build -o "$out/lbicaperf" ./lbicaperf) >&2
exec "$out/lbicaperf" -workdir "$out" "$@"
