#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments. Build outputs, the Go build cache and span files all stay in
# .bench_build at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
