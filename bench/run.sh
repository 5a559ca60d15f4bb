#!/usr/bin/env bash
# Builds the benchmark with every build product inside the checkout
# (.bench_build/) and runs it from the repository root. Arguments are
# passed through; see the package comment in main.go.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="${GOPATH:-$build/gopath}" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/bin/bench" .
cd "$root"
exec "$build/bin/bench" "$@"
