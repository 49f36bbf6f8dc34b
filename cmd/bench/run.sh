#!/usr/bin/env bash
# The command BENCHMARK.json names: build the harness once per checkout,
# then run it with the arguments given. The binary and the Go build cache
# both live under .bench_build/ so that a run reads and writes only inside
# its checkout; `go run ./cmd/bench ...` is the same program for a human at
# a shell.
set -euo pipefail
cd "$(dirname "$0")/../.."
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/bench ./cmd/bench
exec .bench_build/bench "$@"
