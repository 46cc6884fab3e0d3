#!/usr/bin/env bash
# Builds depserve and the benchmark from this checkout, then runs one
# workload:
#
#   bash benchmark/run.sh --workload corpus-edit --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, corpus
# files, store snapshots) stays under .bench_build/ at the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root" && go build -o "$out/depserve" ./cmd/depserve) >&2
(cd "$here" && go build -o "$out/exactbench" .) >&2

cd "$root"
exec "$out/exactbench" -depserve "$out/depserve" -workdir "$out" "$@"
