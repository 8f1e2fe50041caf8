#!/usr/bin/env bash
# Builds simbench from source and runs it from the repository root.
#
#   bash simbench/run.sh --workload lookup-l2 --seed 1 --seconds 10 --trace 0
#   bash simbench/run.sh compare --base DIR --new DIR
#
# Everything the build and the run write (binary, Go build cache, CPU
# profiles, span files) goes under .bench_build/ in the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go -C "$root/simbench" build -o "$out/simbench" . >&2
cd "$root"
exec "$out/simbench" "$@"
