#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout
# (Go's build cache included, so nothing is written outside it) and runs
# it with the given arguments from the checkout's root.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="${root}/.bench_build"
export GOCACHE="${build}/gocache" GOTOOLCHAIN=local
go -C "${root}/bench" build -o "${build}/updlrm-bench" .
cd "${root}"
exec "${build}/updlrm-bench" "$@"
