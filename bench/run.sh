#!/usr/bin/env bash
# Builds quakebench from source into .bench_build/ of the checkout this
# script sits in and runs it from the checkout's root. The Go build and
# module caches live in .bench_build too, so a run writes nothing outside
# the checkout. bench/ is a module of its own (bench/go.mod) that replaces
# the repository's module with "..", so the build fails, and this script
# with it, where the repository is missing.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$build/quakebench" .)
cd "$root"
exec "$build/quakebench" "$@"
