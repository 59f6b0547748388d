#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through to the binary, for example:
#
#   bash perfbench/run.sh --workload flood --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the traced run's span files stay
# under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off GOWORK=off GOPROXY=off

(cd "$here" && go build -o "$out/perfbench" .) >&2

commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$out/perfbench" --commit "$commit" "$@"
