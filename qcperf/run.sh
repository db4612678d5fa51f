#!/usr/bin/env bash
# Builds the benchmark and the qcserved daemon from this checkout, then
# runs one workload:
#
#   bash qcperf/run.sh --workload hardcore --seed 1 --seconds 25 --trace 0
#   bash qcperf/run.sh gen --workload serve-mix --seed 1 --out graph.txt
#
# Run it from the repository root. Build outputs, the Go build cache and
# generated inputs stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/qcperf/go.mod" || ! -f "$root/go.mod" || ! -d "$root/cmd/qcserved" ]]; then
	echo "qcperf: run from the repository root (needs go.mod, cmd/qcserved and qcperf/)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
# Everything the go command writes (build cache, module cache, its
# telemetry under the user config directory, temporary files) stays in
# the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false"
(cd "$root/qcperf" && go build -o "$build/bin/qcperf" .) >&2
(cd "$root" && go build -o "$build/bin/qcserved" ./cmd/qcserved) >&2
if [[ "${1:-}" == gen ]]; then
	exec "$build/bin/qcperf" "$@"
fi
exec "$build/bin/qcperf" -workdir "$build/qcperf-work" -results "$root/qcperf/results" "$@"
