#!/usr/bin/env bash
# Builds the perfbench command from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload scf-direct --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# binary, per-run checkpoints and the traced run's span file.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/work" "$@"
