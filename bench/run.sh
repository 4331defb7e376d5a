#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source with
# the profile cmd/ffbench ships, so the measured binary is optimised the way
# the user's is, and runs it with the arguments given. Everything it writes
# stays in the checkout: the Go build cache and the binary under
# .bench_build/, results under bench/out/.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local
pgo=off
if [ -f "$root/cmd/ffbench/default.pgo" ]; then
	pgo="$root/cmd/ffbench/default.pgo"
fi
(cd "$bench" && go build -pgo="$pgo" -o "$root/.bench_build/ffbench-bench" .) >&2
cd "$root"
exec "$root/.bench_build/ffbench-bench" "$@"
