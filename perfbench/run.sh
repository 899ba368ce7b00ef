#!/usr/bin/env bash
# Builds the perfbench program from source and runs it with the given
# arguments (see README.md):
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build products, the Go build cache
# and every run artifact stay under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --outdir "$out/perfbench-runs" "$@"
