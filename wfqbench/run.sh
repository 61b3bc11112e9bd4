#!/usr/bin/env bash
# Builds the wfqbench harness from the sources of the checkout it is run
# from, then runs it with the given arguments. Run it from the
# repository root:
#
#   bash wfqbench/run.sh --workload engine-rtt --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root: the Go build cache, the binary, and the result
# and span files.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "wfqbench: run from the repository root: no wfqsort sources in $root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

go build -C "$root/wfqbench" -o "$out/wfqbench" .
exec "$out/wfqbench" -out "$out/wfqbench-results" "$@"
