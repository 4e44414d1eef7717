#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash servebench/run.sh --workload live-ink --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, temporary files, the binary)
# stays under .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/servebench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
