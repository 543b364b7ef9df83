#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout: bash benchmark/run.sh [flags]. Everything the build and the
# run write stays inside the checkout: the Go build cache, the compiler's
# temporary files and the binary under .bench_build/, checkpoint files
# under .bench_build/tmp/, traces under benchmark/out/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/benchmark/main.go" ]]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository (go.mod, internal/, benchmark/)" >&2
	exit 3
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gotmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/gotmp"

go build -o "$build/arams-benchmark" ./benchmark
exec "$build/arams-benchmark" "$@"
