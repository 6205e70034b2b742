#!/usr/bin/env bash
# The checked-in invalid trace and checkpoint corpora are tool output:
# regenerate both into a temp dir and demand every file equal its
# checked-in twin, byte for byte. This pins the binlog and checkpoint
# encoders end to end. (traces/invalid/bad_version-v1.bin is a
# retired-format recording, checked in only.)
#
# Usage: tools/check_corpora.sh BUILD_DIR
set -euo pipefail

BUILD=${1:?usage: check_corpora.sh BUILD_DIR}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=$(cd "$BUILD" && pwd)
cd "$ROOT"

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

"$BUILD/tools/trace_corpus" "$OUT/traces/invalid" >/dev/null
"$BUILD/tools/ckpt_corpus" "$OUT/checkpoints/invalid" >/dev/null

cmp "$OUT/traces/valid_v2.bin" traces/valid_v2.bin
checked=1
for f in "$OUT"/traces/invalid/*.bin; do
  cmp "$f" "traces/invalid/$(basename "$f")"
  checked=$((checked + 1))
done
for f in "$OUT"/checkpoints/invalid/*.ckpt; do
  cmp "$f" "checkpoints/invalid/$(basename "$f")"
  checked=$((checked + 1))
done
echo "corpora: $checked regenerated files equal their checked-in twins"
