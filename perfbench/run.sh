#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-all --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binary, temporary files, the service's stores and the span files.
set -euo pipefail

if [[ ! -f go.mod || ! -d perfbench ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp" "$build/config"
build=$(cd "$build" && pwd)

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build/perfbench-work" "$@"
