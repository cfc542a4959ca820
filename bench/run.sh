#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repo root.
# Everything the build writes — the binary, Go's build cache, the go
# command's own counters — stays in .bench_build inside the checkout. With a warm cache the build step is
# a no-op check, so every run after the first starts in under a second.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/suss-bench" .)
cd "$root"
exec "$build/suss-bench" "$@"
