#!/bin/sh
# Builds the benchmark into .bench_build/ at the repository root and runs it
# with the given arguments (the benchmark builds cmd/dwsimd there itself).
# The Go build cache lives there too, so nothing is written outside the
# checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$root/bench" && go build -buildvcs=false -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
