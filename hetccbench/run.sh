#!/usr/bin/env bash
# Builds the hetcc benchmark from the source tree it sits in, then runs it.
# Run it from the repository root, for example:
#
#   bash hetccbench/run.sh --workload paper-matrix --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and the span files all stay
# under .bench_build/ in the repository root.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f hetccbench/go.mod ]; then
	echo "hetccbench: run from the root of a hetcc source tree (go.mod not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C hetccbench build -o "$out/hetccbench" .
exec "$out/hetccbench" "$@"
