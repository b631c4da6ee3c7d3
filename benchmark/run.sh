#!/usr/bin/env bash
# Builds the benchmark from source into benchmark/out/ and runs it from
# the checkout root. Everything it writes (binary, Go build cache, store
# directories, trace files) stays under benchmark/out/; HOME points there
# for the build so that the go command's own files (default GOPATH,
# telemetry mode) do too.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f go.mod ]]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the program this benchmark measures is not here" >&2
	exit 3
fi
out="$PWD/benchmark/out"
# With a fresh HOME the go command's telemetry mode is "local", in which
# it starts a detached child of itself that outlives the build. The mode
# file turns that off: the only processes of a run are the build, which go
# waits for, and the benchmark itself.
mkdir -p "$out/home/.config/go/telemetry" "$out/tmp"
echo off >"$out/home/.config/go/telemetry/mode"
commit="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/gopath" \
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" CGO_ENABLED=0 \
	go build -ldflags "-X main.commit=$commit" -o "$out/psoram-benchmark" ./benchmark >&2
exec "$out/psoram-benchmark" "$@"
