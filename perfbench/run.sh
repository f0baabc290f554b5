#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# measurement. Run it from the repository root:
#
#   bash perfbench/run.sh --workload send --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traced runs' span files stay under
# .bench_build in the repository root. Build errors go to standard error and
# end the script with a non-zero status before anything is measured.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
