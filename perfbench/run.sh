#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload cold-exact --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, binary, scratch files) stays
# under .bench_build at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomodcache" GOPATH="${build}/gopath"
export XDG_CONFIG_HOME="${build}/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
cd "${root}"
exec "${build}/perfbench" -scratch "${build}" "$@"
