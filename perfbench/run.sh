#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it:
#
#   bash perfbench/run.sh --workload fine-grain --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build product, cache and trace file
# stays under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (castencil sources not found in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/gocache"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
