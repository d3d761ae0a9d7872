#!/usr/bin/env bash
# Builds the workload benchmark from this checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash cmd/dtnworkload/run.sh --workload rwp-long --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the module cache and the binary live in .bench_build/
# so that building writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
(
	cd "$root/cmd/dtnworkload"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
		go build -o "$out/dtnworkload" .
)
exec "$out/dtnworkload" "$@"
