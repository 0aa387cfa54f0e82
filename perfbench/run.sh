#!/usr/bin/env bash
# Builds the benchmark and the binaries it drives from the checkout's
# sources, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, per-run scratch space and
# the span files of traced runs.
set -euo pipefail

root=$(pwd)
# The repository's own module must be here; without it there is
# nothing to measure.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/xpowerd" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/xpowerd here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -o "$out/bin/" ./cmd/xpowerd ./cmd/xpower ./cmd/xlint ./cmd/xsim >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" "$@"
