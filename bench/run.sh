#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash bench/run.sh --workload tree40-tcp --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binary and the
# site stores.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/webdis-benchmark" .)
exec "$out/webdis-benchmark" "$@"
