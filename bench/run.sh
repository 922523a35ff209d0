#!/bin/sh
# Builds and runs the benchmark from the root of a gpuwalk checkout:
#
#   sh bench/run.sh --workload svc-hot --seed 3 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the checkout: the Go build cache, the binaries, and the daemons'
# temporary state. Arguments are passed to the benchmark unchanged.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/bench" && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
