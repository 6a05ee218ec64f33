#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and execs it,
# so the process that was started is the benchmark itself. Every build
# artefact and Go cache stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload ycsb-a-perop --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
