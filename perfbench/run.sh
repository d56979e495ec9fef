#!/usr/bin/env bash
# Builds the dscts benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload table2-mono --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# span traces all go under $CARGO_TARGET_DIR (default .bench_build), so the
# benchmark reads and writes only inside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
