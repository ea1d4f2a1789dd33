#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fig-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# toolchain's own state all stay under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build), so the run writes nothing
# outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/perfbench/tmp"
build=$(cd "$build/perfbench" && pwd)
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C "$here" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
