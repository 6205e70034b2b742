#!/usr/bin/env bash
# Kill-and-resume proof: a checkpointed run that dies mid-flight must resume
# from its last checkpoint to the byte-exact digest of an uninterrupted run.
#
# For each scenario the harness
#   1. writes a longer copy of the document (more loops, same program) and
#      runs it straight through, recording run.digest (the reference),
#   2. launches the same run with --checkpoint-dir/--checkpoint-every in the
#      background, waits until the `latest` pointer exists, and SIGKILLs the
#      process; the run must die by that signal (exit status 137),
#   3. resumes from <dir>/latest with --resume and demands the same digest,
#   4. rejects every file in checkpoints/invalid/ (corrupt corpus) non-zero.
#
# The harness fails unless every scenario was killed mid-run. A finer
# cadence alone cannot keep the documents as checked in alive that long:
# the runner skips empty cadence intervals, so they park at most 25-120
# times and finish within about 50 ms. Their longer copies park 1,200 to
# 3,000 times at a 0.001 s cadence, so each checkpointed run lasts more
# than a second in a Release build, far past the first `latest`.
#
# Usage: tools/run_crash_resume.sh <build-dir>
set -euo pipefail

BUILD=${1:?usage: run_crash_resume.sh <build-dir>}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

RUN="$BUILD/tools/iobts_run"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

digest_of() { # digest_of <output-file> -> prints run.digest value
  sed -n 's/^run\.digest=//p' "$1" | tail -n 1
}

EVERY=0.001  # checkpoint cadence, virtual seconds

# scenario | sed edit that lengthens it
CASES=(
  "fig10_quick|s/^let iters = 6$/let iters = 200/"
  "fig13_quick|s/^let loops = 2$/let loops = 40/"
  "faulted_degrade|s/loop i : 4 {/loop i : 400 {/"
  "checkpoint_restart|s/repeat step : 5 {/repeat step : 1000 {/"
)

CRASHED=0
SCENARIOS=0

for case in "${CASES[@]}"; do
  IFS='|' read -r scn edit <<< "$case"
  SCENARIOS=$((SCENARIOS + 1))
  path=$TMP/$scn.scn
  dir=$TMP/$scn
  echo "== $scn"
  sed "$edit" "scenarios/$scn.scn" > "$path"
  if cmp -s "$path" "scenarios/$scn.scn"; then
    echo "   the edit '$edit' no longer matches scenarios/$scn.scn"
    exit 1
  fi

  # 1. Reference digest from an uninterrupted run.
  "$RUN" --scenario "$path" --digest > "$TMP/straight.out"
  ref=$(digest_of "$TMP/straight.out")
  [[ -n "$ref" ]] || { echo "   no digest in straight run"; exit 1; }

  # 2. Checkpointed run, killed as soon as the first checkpoint lands.
  "$RUN" --scenario "$path" --digest \
    --checkpoint-dir "$dir" --checkpoint-every "$EVERY" \
    > "$TMP/ckpt.out" 2>&1 &
  pid=$!
  for _ in $(seq 1 2000); do
    [[ -e "$dir/latest" ]] && break
    kill -0 "$pid" 2> /dev/null || break
    sleep 0.005
  done
  kill -KILL "$pid" 2> /dev/null || true
  status=0
  wait "$pid" 2> /dev/null || status=$?
  if [[ $status -eq 137 ]]; then
    CRASHED=$((CRASHED + 1))
    echo "   killed pid $pid mid-run"
  else
    echo "   run exited with status $status before the kill"
  fi
  [[ -e "$dir/latest" ]] || { echo "   no checkpoint was written"; exit 1; }
  latest=$dir/$(cat "$dir/latest")

  # 3. Resume from the last checkpoint; digest must match the reference.
  "$RUN" --resume "$latest" --digest > "$TMP/resume.out"
  got=$(digest_of "$TMP/resume.out")
  if [[ "$got" != "$ref" ]]; then
    echo "   DIGEST MISMATCH: straight $ref vs resumed $got"
    exit 1
  fi
  echo "   resumed from $(basename "$latest"): digest $got matches"
done

echo "== invalid corpus"
BAD=0
for f in checkpoints/invalid/*.ckpt; do
  if "$RUN" --resume "$f" > "$TMP/bad.out" 2>&1; then
    echo "   $f was accepted -- it must be rejected"
    exit 1
  fi
  grep -q "checkpoint error" "$TMP/bad.out" \
    || { echo "   $f: no diagnostic printed"; cat "$TMP/bad.out"; exit 1; }
  BAD=$((BAD + 1))
done
echo "   rejected $BAD corrupt checkpoints with diagnostics"

echo "crash-resume: $SCENARIOS scenarios resumed exactly" \
  "($CRASHED killed mid-run), $BAD corrupt checkpoints rejected"
if [[ $CRASHED -ne $SCENARIOS ]]; then
  echo "crash-resume: only $CRASHED of $SCENARIOS runs were killed mid-run"
  exit 1
fi
