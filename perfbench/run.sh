#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build and run artifact (Go build
# cache, binary, spans, CPU profiles, the result cache's disk tier) stays
# under the build directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

# The benchmark module depends only on the repository module (a local
# replace), so the build never needs the network or a toolchain download.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin # the Go distribution's default place
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" -out "$out" -commit "$commit" "$@"
