#!/usr/bin/env bash
# Builds the cerfixd end-to-end benchmark and runs it from the
# repository root, passing every argument through:
#
#   bash bench/run.sh --workload entry --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root, the Go build cache included. See bench/README.md.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= CGO_ENABLED=0
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry under the user config directory.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
(cd bench && go build -o "$out/cerfixbench" .)
exec "$out/cerfixbench" "$@"
