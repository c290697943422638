#!/usr/bin/env bash
# Builds the benchmark and the shipped firmupd from source inside the
# checkout, then runs the benchmark with the given arguments. Everything
# the go tool writes — compiler cache, module cache, temporaries — and
# both binaries stay under .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/firmupd" ]]; then
	echo "bench/run.sh: no firmup source at $root (go.mod, cmd/firmupd): nothing to measure" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false
# With telemetry in its default "local" mode the first go command on a
# fresh config directory forks a detached "go ** telemetry **" sidecar
# that outlives it. No process may survive a run, so turn it off.
echo off >"$out/config/go/telemetry/mode"
(cd "$root" && go build -o "$out/bin/firmupd" ./cmd/firmupd)
(cd "$root/bench" && go build -o "$out/bin/firmup-bench" .)
cd "$root"
exec "$out/bin/firmup-bench" -firmupd "$out/bin/firmupd" "$@"
