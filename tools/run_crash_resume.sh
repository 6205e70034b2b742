#!/usr/bin/env bash
# Kill-and-resume proof: a checkpointed run that dies mid-flight must resume
# from its last checkpoint to the byte-exact digest of an uninterrupted run.
#
# For each scenario the harness
#   1. runs straight through and records run.digest (the reference),
#   2. launches the same run with --checkpoint-dir/--checkpoint-every in the
#      background, waits until the `latest` pointer exists, and SIGKILLs the
#      process (on fast machines the run may finish first; the resume proof
#      below is unaffected -- the kill just makes the common case a genuine
#      mid-run crash),
#   3. resumes from <dir>/latest with --resume and demands the same digest,
#   4. rejects every file in checkpoints/invalid/ (corrupt corpus) non-zero.
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

CRASHED=0
SCENARIOS=0

for scn in fig10_quick fig13_quick faulted_degrade checkpoint_restart; do
  SCENARIOS=$((SCENARIOS + 1))
  path=scenarios/$scn.scn
  dir=$TMP/$scn
  echo "== $scn"

  # 1. Reference digest from an uninterrupted run.
  "$RUN" --scenario "$path" --digest > "$TMP/straight.out"
  ref=$(digest_of "$TMP/straight.out")
  [[ -n "$ref" ]] || { echo "   no digest in straight run"; exit 1; }

  # 2. Checkpointed run, killed as soon as the first checkpoint lands.
  "$RUN" --scenario "$path" --digest \
    --checkpoint-dir "$dir" --checkpoint-every 0.5 \
    > "$TMP/ckpt.out" 2>&1 &
  pid=$!
  for _ in $(seq 1 2000); do
    [[ -e "$dir/latest" ]] && break
    kill -0 "$pid" 2> /dev/null || break
    sleep 0.005
  done
  if kill -KILL "$pid" 2> /dev/null; then
    CRASHED=$((CRASHED + 1))
    echo "   killed pid $pid mid-run"
  else
    echo "   run finished before the kill (fast machine); resuming anyway"
  fi
  wait "$pid" 2> /dev/null || true
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
