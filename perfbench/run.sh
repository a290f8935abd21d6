#!/usr/bin/env bash
# Builds sweepd and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments, for example:
#
#   bash perfbench/run.sh --workload predict --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, checkpoints, the digest
# store and the span files. The last line of standard output is the JSON
# result; build failures exit non-zero without printing one.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/gopath" "$out/config" "$out/cache"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -o "$out/bin/sweepd" ./cmd/sweepd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --sweepd "$out/bin/sweepd" --workdir "$out" "$@"
