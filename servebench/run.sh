#!/usr/bin/env bash
# Builds the servebench harness from this checkout and runs it with the
# given arguments (see doc.go). Run from the repository root:
#
#	bash servebench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache included, lands in .bench_build/
# at the repository root, so a run reads and writes only inside the
# checkout. Without the repository around this directory the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command's user config (and its telemetry counters) live under
# XDG_CONFIG_HOME; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/servebench" -o "$out/servebench" .
exec "$out/servebench" -root "$root" "$@"
