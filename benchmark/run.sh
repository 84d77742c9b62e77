#!/usr/bin/env bash
# Runs workloads N times (seeds 1..N) into a result-set directory, one
# result file per run; two such sets are what
# `feedbench -compare <setA> <setB>` judges. Run from the repo root:
#
#   bash benchmark/run.sh <set-dir> [runs=10] [seconds=run_seconds] [extra feedbench flags...]
#
# e.g. `bash benchmark/run.sh /tmp/before 10` on the parent commit and
# `bash benchmark/run.sh /tmp/after 10` on the change. WORKLOADS names
# the workloads (default: BENCHMARK.json's two); add the extras with
# WORKLOADS="small_push large_push http_pull plan_ingest".
set -euo pipefail

set_dir="${1:?usage: run.sh <set-dir> [runs] [seconds] [feedbench flags...]}"
runs="${2:-10}"
seconds="${3:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}"
shift $(( $# < 3 ? $# : 3 ))

mkdir -p "$set_dir"
for seed in $(seq 1 "$runs"); do
	for workload in ${WORKLOADS:-small_push large_push}; do
		bash benchmark/feedbench.sh --workload "$workload" --seed "$seed" --seconds "$seconds" \
			--trace 0 -out "$set_dir/$workload-$seed.json" "$@" >/dev/null
	done
done
echo "result set written to $set_dir" >&2
