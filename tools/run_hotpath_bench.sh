#!/usr/bin/env bash
# Record the hot-path performance trajectory into BENCH_hotpath.json.
#
# Runs the micro suites (micro_sim, micro_pfs, micro_hotpath) as JSON reports
# plus the two largest figure harnesses (fig10, fig13) under `time`, then
# merges everything under the given label via tools/bench_to_json. Run once
# with label `before` on the old revision and once with `after` on the new
# one; the merger recomputes the speedup section when both labels exist.
#
# micro_hotpath also embeds the zero-allocation steady-state assertions
# (counting operator new): its main() runs them before any benchmark and
# exits non-zero on failure, so a recording run doubles as that gate.
#
# Usage: tools/run_hotpath_bench.sh <build-dir> <label>    (label: before|after)
# Env:   IOBTS_BENCH_FULL=1   run fig harnesses at full scale (slow)
set -euo pipefail

BUILD=${1:?usage: run_hotpath_bench.sh <build-dir> <label>}
LABEL=${2:?usage: run_hotpath_bench.sh <build-dir> <label>}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

MODE=quick
FIG_FLAG=--quick
# Wall-clock keys are mode-specific so a full-scale capture cannot overwrite
# the quick-mode numbers for the same label (they differ by ~100x and are not
# comparable; mixing them corrupts the derived speedup section).
FIG10_KEY=fig10_wall_seconds
FIG13_KEY=fig13_wall_seconds
if [[ "${IOBTS_BENCH_FULL:-0}" != 0 ]]; then
  MODE=full
  FIG_FLAG=--full
  FIG10_KEY=fig10_full_wall_seconds
  FIG13_KEY=fig13_full_wall_seconds
fi

for micro in micro_sim micro_pfs micro_hotpath; do
  echo "== $micro"
  "$BUILD/bench/$micro" \
    --benchmark_out="$TMP/$micro.json" --benchmark_out_format=json
done

wall() { # wall <binary> -> prints elapsed seconds
  local start end
  start=$(date +%s.%N)
  "$1" "$FIG_FLAG" > /dev/null
  end=$(date +%s.%N)
  awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", b - a }'
}

echo "== fig10_wacomm_9216 ($MODE)"
FIG10=$(wall "$BUILD/bench/fig10_wacomm_9216")
echo "   ${FIG10}s"
echo "== fig13_hacc_9216_strategies ($MODE)"
FIG13=$(wall "$BUILD/bench/fig13_hacc_9216_strategies")
echo "   ${FIG13}s"

"$BUILD/tools/bench_to_json" \
  --out BENCH_hotpath.json --label "$LABEL" --mode "$MODE" \
  --bench micro_sim="$TMP/micro_sim.json" \
  --bench micro_pfs="$TMP/micro_pfs.json" \
  --bench micro_hotpath="$TMP/micro_hotpath.json" \
  --wall "$FIG10_KEY"="$FIG10" \
  --wall "$FIG13_KEY"="$FIG13"

echo "recorded label '$LABEL' (mode $MODE) into BENCH_hotpath.json"
