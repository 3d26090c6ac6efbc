#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#   bash perfbench/run.sh --workload campaign-paper --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare parent.log change.log
# Every build product and cache stays under the build directory
# (CARGO_TARGET_DIR when set, else .bench_build), inside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"
export HOME=$build/home GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
