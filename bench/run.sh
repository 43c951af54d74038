#!/usr/bin/env bash
# Builds the learn benchmark from source and runs it, passing every argument
# on (see main.go). Run it from the repository root:
#
#   bash bench/run.sh --workload eco_neq --seed 0 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced runs' span files go to
# .bench_build/ under the repository root, so nothing is written outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS=

go -C "$root/bench" build -o "$out/learnbench" .
cd "$root"
exec "$out/learnbench" "$@"
