#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it sits
# in and runs it with the given arguments, for example:
#
#   bash e2ebench/run.sh --workload mlp-comm-4x4 --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache included, go to .bench_build/ at the
# checkout's root, so the run reads and writes nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
