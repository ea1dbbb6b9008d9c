#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash obdbench/run.sh --workload grade-10k --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the go command's own state all stay
# under .bench_build/ in the checkout. Outside a full checkout (no go.mod
# one level above obdbench/) the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/obdbench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
		GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
		go build -o "$out/obdbench" .
) >&2
exec "$out/obdbench" "$@"
