#!/usr/bin/env bash
# Record the observability-plane overhead into BENCH_obs_overhead.json.
#
# Runs the BM_DispatchTracing{Off,On,Binary} family plus
# BM_BinaryWriterDrain from bench/micro_hotpath (the identical event-dispatch
# churn with no sink, with an installed TraceSink, and with the binary
# flight recorder draining that sink; the drain-and-encode pass alone) and
# merges the report via tools/bench_to_json. The time ratio On/Off is the
# per-event cost of tracing; Binary/On is the recording cost on top of it.
# Benchmarks run as interleaved repetitions and the medians are what get
# recorded, so the comparison holds on noisy machines. That the traced
# dispatch path stays allocation-free is asserted by alloc_test (ctest),
# not by this recording.
#
# Usage: tools/run_obs_bench.sh <build-dir> [label]     (label default: obs)
set -euo pipefail

BUILD=${1:?usage: run_obs_bench.sh <build-dir> [label]}
LABEL=${2:-obs}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== micro_hotpath (BM_DispatchTracing*)"
"$BUILD/bench/micro_hotpath" \
  --benchmark_filter='^BM_DispatchTracing(Off|On|Binary)/|^BM_BinaryWriterDrain/' \
  --benchmark_repetitions=9 --benchmark_enable_random_interleaving=true \
  --benchmark_min_time=0.25 \
  --benchmark_out="$TMP/obs.json" --benchmark_out_format=json

"$BUILD/tools/bench_to_json" \
  --out BENCH_obs_overhead.json --label "$LABEL" \
  --schema iobts-bench-obs-v2 \
  --bench micro_hotpath="$TMP/obs.json"

echo "recorded label '$LABEL' into BENCH_obs_overhead.json"
