#!/bin/sh
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the Go toolchain writes goes under .bench_build/,
# and nothing is fetched from the network.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C benchmark -o "$build/dcart-benchmark" . >&2
exec "$build/dcart-benchmark" "$@"
