#!/usr/bin/env bash
# Builds stablerankd and the srbench benchmark from this checkout, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash srbench/run.sh --workload verify --seed 1 --seconds 10 --trace 0
#
# Build caches and scratch files stay under .srbench/ in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/stablerankd" || ! -f "$root/srbench/go.mod" ]]; then
	echo "srbench: run from the repository root (go.mod, cmd/stablerankd and srbench/ must exist)" >&2
	exit 2
fi
out="$root/.srbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/stablerankd" ./cmd/stablerankd
(cd "$root/srbench" && go build -o "$out/bin/srbench" .)
exec "$out/bin/srbench" -root "$root" -server "$out/bin/stablerankd" "$@"
