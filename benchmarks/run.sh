#!/usr/bin/env bash
# The command BENCHMARK.json names: build the ledger from source inside the
# checkout and run it with the driver's arguments,
#
#   bash benchmarks/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under <checkout>/.bench_build
# (Go build and module caches included), which .gitignore names. A traced run
# leaves its spans and summary in .bench_build/out. The build is incremental:
# after the first run it costs about a second.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomod
export GOPATH=$build/gopath
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "$here" && go build -o "$build/e2e" ./e2e)
exec "$build/e2e" -out "$build/out" "$@"
