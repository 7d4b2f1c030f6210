#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it sits in and runs it with
# the given arguments, e.g.
#
#   bash servebench/run.sh --workload dense --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build/servebench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

# Keep the Go toolchain's caches, temporary files and settings inside the
# checkout, and never let it reach for the network: the module has no
# dependencies outside the repository.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd "$here" && go build -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"
