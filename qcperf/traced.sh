#!/usr/bin/env bash
# Runs each workload once with tracing. For each it writes
# qcperf/results/<workload>-layers.json (the per-layer metrics) and
# qcperf/results/<workload>-trace.json (one Chrome trace: the engine's
# spans merged with the benchmark's own; open it in Perfetto).
#
#   bash qcperf/traced.sh [seed] [seconds]
#
# Run it from the repository root.
set -euo pipefail
seed=${1:-1}
seconds=${2:-25}
for w in hardcore sparse-tcp serve-mix; do
	bash qcperf/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1
done
