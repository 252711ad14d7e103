#!/bin/sh
# Entry point named by BENCHMARK.json. The bench is its own module
# (bench/go.mod, importing the repo through a replace directive), so it
# is built here and then run from the checkout root. Everything the go
# toolchain writes — build cache, temp files, telemetry counters —
# stays under .bench_build/ in the checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go build -C "$root/bench" -o "$build/antarex-bench" .
exec "$build/antarex-bench" -root "$root" "$@"
