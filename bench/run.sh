#!/usr/bin/env bash
# Builds the benchmark harness inside the checkout and runs it with the
# given arguments. Everything the build leaves behind (Go build cache,
# temporary files, toolchain counters, the binary) stays under
# .bench_build/ at the root of the checkout, which the root .gitignore
# names: the go command is pointed at directories there instead of the
# user's home.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build/go"
mkdir -p "$build/tmp" "$build/home"
(
	cd "$here"
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/gopath"
	export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
	go build -o "$build/bench" .
)
exec "$build/bench" "$@"
