#!/usr/bin/env bash
# Builds cmd/memcached and the benchmark from this source tree into
# .bench_build/ and runs one benchmark run. Arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload kv-small --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/bin/memcached" ./cmd/memcached >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -server "$out/bin/memcached" -out "$out/perfbench" -root "$root" "$@"
