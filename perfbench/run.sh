#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload heat3d-timeshare --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, checkpoints and traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=readonly GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off

commit=unknown
if [ -d .git ] && command -v git >/dev/null 2>&1; then
	commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi

(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
PERFBENCH_COMMIT=$commit exec "$out/perfbench" "$@"
