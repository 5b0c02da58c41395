#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with
# the given arguments. Every file the Go toolchain writes (build cache,
# temporary files, telemetry) stays under .bench_build/ in the
# checkout; the benchmark's own scratch WALs, spans and profiles go to
# .bench_build/perfbench/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
