#!/usr/bin/env bash
# Driver entry point: build the benchmark inside the checkout, then run it.
# Everything Go writes (build cache, temporary files, the binary) stays
# under .bench_build at the checkout's root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ]; then
	echo "bench: $root holds no go.mod: the benchmark builds against the repository's sources" >&2
	exit 1
fi
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/bench" . >&2
exec "$build/bench" -workdir "$build/work" "$@"
