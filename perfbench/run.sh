#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it.
#
#   bash perfbench/run.sh --workload structural --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, corpora,
# saved indexes, trace files) stays under .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	XDG_CACHE_HOME="$out/home" GOENV=off GOWORK=off GOPROXY=off \
	GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
