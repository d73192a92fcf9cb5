#!/usr/bin/env bash
# Builds the benchmark and the aodserver it drives from the sources of the
# checkout this script lives in, then runs the benchmark with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload aod-optimal --seed 42 --seconds 20 --trace 0
#
# Everything building and running leaves behind (binaries, the Go build
# cache, server data directories) lands in .bench_build at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

cd "$root"
go build -o "$out/bin/aodserver" ./cmd/aodserver
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server-bin "$out/bin/aodserver" -work-dir "$out/run" "$@"
