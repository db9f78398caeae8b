#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root;
# every argument is passed on (see README.md in this directory).
# Build output, the Go build cache and the compiler's temporary files
# stay in .bench_build/; no user Go settings are read.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd benchmark && go build -o "$out/wfsql-bench" .)
exec "$out/wfsql-bench" "$@"
