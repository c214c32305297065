#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the root of the repository, for example:
#
#   bash bench/run.sh --workload cell-hydra-parest --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# campaign caches, trace files) stays under .bench_build/ in the
# current directory. The build never touches the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

(cd bench && go build -o "$out/hydrabench" .)
exec "$out/hydrabench" -workdir "$out" "$@"
