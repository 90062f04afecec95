#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root. A run may read
# and write only inside the checkout, so everything the Go toolchain writes
# goes under benchmark/.build/: the binary, the build cache, temp files,
# and (through HOME) the telemetry counters Go keeps in the user's
# configuration directory, which no Go setting can move or turn off.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$build/benchmark" .)
cd "$here/.."
exec "$build/benchmark" "$@"
