#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given flags.
# BENCHMARK.json names this script as the benchmark command.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
# Keep the go command's cache and its telemetry counters inside the
# checkout; by default they land under $HOME.
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go -C "$root/benchmark" build -o "$build/manetbench" .
cd "$root"
exec "$build/manetbench" "$@"
