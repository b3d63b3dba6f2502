#!/usr/bin/env bash
# Builds mdbench and mdserve from this checkout's sources and runs
# mdbench with the given arguments. Run it from the repository root:
#
#	bash bench/run.sh --workload cell-timing --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries,
# recordings, journals, daemon sockets, spans) stays under .bench_build/
# in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd bench && go build -o "$out/mdbench" ./mdbench && go build -o "$out/mdserve" mdspec/cmd/mdserve) >&2
exec "$out/mdbench" -mdserve "$out/mdserve" -workdir "$out" "$@"
