#!/usr/bin/env bash
# Builds pintd, pintgate and the perfbench generator from this checkout,
# then runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ingest-elephants --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/pintd" || ! -d "$root/cmd/pintgate" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a checkout that holds the collector's source" >&2
	exit 2
fi

build="$root/.bench_build/perfbench"
mkdir -p "$build/bin" "$build/work" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GO111MODULE=on XDG_CONFIG_HOME="$build/config" GOTELEMETRY=off CGO_ENABLED=0

go build -o "$build/bin/pintd" ./cmd/pintd
go build -o "$build/bin/pintgate" ./cmd/pintgate
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work/$$" "$@"
