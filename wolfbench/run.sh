#!/usr/bin/env bash
# Builds the wolfbench binary from the checkout's sources and runs it.
#
#   bash wolfbench/run.sh --workload upload --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything a run writes (the binary, the
# Go build cache, module, config and temporary directories, and the
# benchmark's corpora) lives under the build directory — $CARGO_TARGET_DIR
# when set, else .bench_build — so the run writes nothing outside the
# checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export TMPDIR=$build/tmp
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$root/wolfbench" && go build -o "$build/wolfbench" .)
exec "$build/wolfbench" -workdir "$build" "$@"
