#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Every build artefact and cache stays under
# .bench_build at the checkout root, so the run reads and writes nothing
# outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
