#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the checkout root) and runs it with the given arguments.
# Everything the Go toolchain writes — build cache, module cache,
# telemetry — is pointed inside .bench_build/, so a run reads and writes
# only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
(
	cd "$here"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		go build -o "$out/misketch-benchmark" .
)
exec "$out/misketch-benchmark" "$@"
