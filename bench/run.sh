#!/usr/bin/env bash
# The benchmark contract's command: build the benchmark from the checkout's
# source, then run it with the arguments given.
#
#   bash bench/run.sh --workload table1 --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Everything the build writes (binary,
# Go build cache, temporary files) stays under bench/out/ there, so a run
# reads and writes nothing outside the checkout. `go run ./bench ...` is
# the same program on the default build cache.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/scenario ]; then
	echo "bench/run.sh: run from the root of a cavenet checkout (no go.mod or internal/ here)" >&2
	exit 2
fi

# The leading dot keeps the go tool's ./... from descending into the cache;
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
build="$PWD/bench/out/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$build/cavenet-bench" ./bench
exec "$build/cavenet-bench" "$@"
