#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload archive-ingest --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout: the Go build cache, the binary, the
# scratch archives of a run (removed when the run ends) and the Chrome
# trace files of traced runs.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
# The go command's caches and its local telemetry also stay in the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --work "$build/work" "$@"
