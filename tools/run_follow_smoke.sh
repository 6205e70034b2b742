#!/usr/bin/env bash
# Record-while-follow proof: `iobts_profile --follow` tailing a trace that
# iobts_run is still writing must converge to the exact report an offline
# decode of the finished file produces.
#
# The harness
#   1. launches iobts_run in the background with the binary recorder and a
#      small --trace-flush-bytes so the file grows in many small,
#      independently-decodable chunks,
#   2. immediately starts iobts_profile --follow on the growing file with
#      sliced reads (so partial-chunk buffering is exercised even if the
#      writer wins the race and finishes first),
#   3. demands at least MIN_REFRESHES refresh lines and a convergence line,
#   4. diffs the converged report against a fresh offline decode of the
#      same file -- they must be byte-identical.
#
# Usage: tools/run_follow_smoke.sh <build-dir>
set -euo pipefail

BUILD=${1:?usage: run_follow_smoke.sh <build-dir>}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

RUN="$BUILD/tools/iobts_run"
PROFILE="$BUILD/tools/iobts_profile"
SCENARIO=scenarios/fig10_quick.scn
MIN_REFRESHES=2

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

TRACE="$TMP/follow.trace.bin"

"$RUN" --scenario "$SCENARIO" --trace "$TRACE" --trace-flush-bytes 4096 \
  >"$TMP/run.out" 2>&1 &
RUN_PID=$!

# Tail the growing file. 4 KiB per poll keeps the reader behind the writer
# long enough to see several incremental refreshes even when the writer
# finishes first.
"$PROFILE" "$TRACE" --follow --follow-poll-ms 20 --follow-max-s 60 \
  --follow-bytes-per-poll 4096 >"$TMP/follow.out"

wait "$RUN_PID"

REFRESHES=$(grep -c '^refresh ' "$TMP/follow.out" || true)
if [ "$REFRESHES" -lt "$MIN_REFRESHES" ]; then
  echo "follow smoke: only $REFRESHES refresh line(s), need >= $MIN_REFRESHES" >&2
  cat "$TMP/follow.out" >&2
  exit 1
fi
if ! grep -q '^follow: converged' "$TMP/follow.out"; then
  echo "follow smoke: no convergence line" >&2
  cat "$TMP/follow.out" >&2
  exit 1
fi

# The report after the convergence line must match the offline decode of
# the finished file byte for byte.
sed -n '/^follow: converged/,$p' "$TMP/follow.out" | tail -n +2 \
  >"$TMP/follow.report"
"$PROFILE" "$TRACE" >"$TMP/offline.report"
if ! diff -u "$TMP/offline.report" "$TMP/follow.report"; then
  echo "follow smoke: live report diverges from offline decode" >&2
  exit 1
fi

echo "follow smoke: $REFRESHES refreshes, converged, report matches offline decode"
