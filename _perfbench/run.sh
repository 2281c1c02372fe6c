#!/usr/bin/env bash
# Builds the benchmark and the vbrd worker binary from the source tree it
# runs in, then runs one workload. Run it from the repository root:
#
#   bash _perfbench/run.sh --workload serve-bin --seed 7 --seconds 20 --trace 0
#
# The Go build cache, the binaries, span dumps and worker metrics all stay
# under .bench_build/ in the tree. Outside a full source tree the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/vbrd" ./cmd/vbrd
go -C _perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -vbrd "$out/vbrd" -out "$out" "$@"
