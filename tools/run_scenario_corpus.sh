#!/usr/bin/env bash
# Scenario-corpus sweep through the iobts_run CLI: every checked-in
# scenarios/*.scn must compile and run to completion (exit 0), and every
# scenarios/invalid/*.scn must be rejected with a "scenario error"
# diagnostic on stderr (exit != 0, and never a crash/signal). Every run is
# bounded by RUN_TIMEOUT_S of wall time, so a hung document fails the sweep
# by name instead of stalling it.
#
# Each output flag (--jsonl, --csv, --trace, --summary) pointed into a
# missing directory must fail with a "cannot ..." line on stderr and exit 1.
# Each numeric flag of iobts_run and iobts_profile given garbage or an
# out-of-range value must be a usage error: exit 2 with a diagnostic naming
# the flag's range, never a crash (the profile cases read one trace that
# the sweep records first).
#
# Each valid document runs with --digest, and its run.digest must equal the
# document's line in scenarios/digests.txt ('<file> <digest>'); a mismatch,
# or a document with no line, fails the sweep by name. The digests are exact
# bits, including the lognormal link noise of noisy_link.scn, which goes
# through the C library's exp and log. They were recorded with GCC and
# glibc, where Release and Sanitize builds agree, so CI runs this script
# only in the GCC/glibc release-tests and sanitize legs.
#
# Usage: tools/run_scenario_corpus.sh [BUILD_DIR]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
RUNNER="$BUILD_DIR/tools/iobts_run"
PROFILE="$BUILD_DIR/tools/iobts_profile"
for tool in "$RUNNER" "$PROFILE"; do
  if [[ ! -x "$tool" ]]; then
    echo "missing $tool -- build the iobts_run and iobts_profile targets" \
      "first" >&2
    exit 1
  fi
done

# Wall-time bound per run, in seconds: far above the slowest valid
# document's time in the Sanitize build, so only a hang reaches it.
RUN_TIMEOUT_S=20

DIGESTS=scenarios/digests.txt

run_cmd() { # run_cmd <tool> [args] -> the tool's exit status (124: timed out)
  set +e
  timeout "$RUN_TIMEOUT_S" "$@" >/tmp/scn_out.$$ 2>/tmp/scn_err.$$
  status=$?
  set -e
}
run_bounded() { # run_bounded <scn> [flags] -> iobts_run's exit status
  run_cmd "$RUNNER" --scenario "$@"
}

FAILED=0

echo "== scenario corpus: valid documents =="
for scn in scenarios/*.scn; do
  run_bounded "$scn" --digest
  if [[ $status -eq 0 ]]; then
    want="$(awk -v f="$(basename "$scn")" '$1 == f { print $2 }' "$DIGESTS")"
    got="$(sed -n 's/^run\.digest=//p' /tmp/scn_out.$$)"
    if [[ -z "$want" ]]; then
      echo "FAIL $scn (no line in $DIGESTS)" >&2
      FAILED=1
    elif [[ "$got" != "$want" ]]; then
      echo "FAIL $scn (run.digest $got, $DIGESTS pins $want)" >&2
      FAILED=1
    else
      echo "ok   $scn ($got)"
    fi
  elif [[ $status -eq 124 ]]; then
    echo "FAIL $scn (timed out after ${RUN_TIMEOUT_S} s)" >&2
    FAILED=1
  else
    echo "FAIL $scn (expected clean run)" >&2
    cat /tmp/scn_err.$$ >&2
    FAILED=1
  fi
done

echo "== scenario corpus: invalid documents =="
for scn in scenarios/invalid/*.scn; do
  run_bounded "$scn"
  if [[ $status -eq 124 ]]; then
    echo "FAIL $scn (timed out after ${RUN_TIMEOUT_S} s)" >&2
    FAILED=1
  elif [[ $status -ge 128 ]]; then
    echo "FAIL $scn (crashed with signal $((status - 128)))" >&2
    FAILED=1
  elif [[ $status -eq 0 ]]; then
    echo "FAIL $scn (invalid document ran cleanly)" >&2
    FAILED=1
  elif ! grep -q "scenario error" /tmp/scn_err.$$; then
    echo "FAIL $scn (rejected without a 'scenario error' diagnostic)" >&2
    cat /tmp/scn_err.$$ >&2
    FAILED=1
  else
    echo "ok   $scn (rejected: $(head -1 /tmp/scn_err.$$))"
  fi
done
SCRATCH="$(mktemp -d)"
echo "== output flags: unwritable paths =="
for flag in --jsonl --csv --trace --summary; do
  run_bounded scenarios/single_rank.scn "$flag" "$SCRATCH/no_such_dir/out"
  if [[ $status -eq 1 ]] && grep -q "^cannot " /tmp/scn_err.$$; then
    echo "ok   $flag into a missing directory ($(head -1 /tmp/scn_err.$$))"
  else
    echo "FAIL $flag into a missing directory (exit $status, expected 1" \
      "with a 'cannot ...' diagnostic)" >&2
    cat /tmp/scn_err.$$ >&2
    FAILED=1
  fi
done

echo "== numeric flags: bad values =="
expect_usage_error() { # expect_usage_error <label> <tool> [args]
  local label="$1"
  shift
  run_cmd "$@"
  if [[ $status -eq 2 ]] && grep -q " takes a .* got '" /tmp/scn_err.$$; then
    echo "ok   $label ($(head -1 /tmp/scn_err.$$))"
  elif [[ $status -ge 128 && $status -ne 124 ]]; then
    echo "FAIL $label (crashed with signal $((status - 128)))" >&2
    FAILED=1
  else
    echo "FAIL $label (exit $status, expected a usage error, exit 2)" >&2
    cat /tmp/scn_err.$$ >&2
    FAILED=1
  fi
}
for value in -1 99999999999999 abc 4096x 0; do
  expect_usage_error "iobts_run --trace-flush-bytes $value" \
    "$RUNNER" --scenario scenarios/single_rank.scn \
    --trace "$SCRATCH/flush.trace.bin" --trace-flush-bytes "$value"
done
for value in abc -1 1e999 nan; do
  expect_usage_error "iobts_run --checkpoint-every $value" \
    "$RUNNER" --scenario scenarios/single_rank.scn \
    --checkpoint-dir "$SCRATCH" --checkpoint-every "$value"
done
TRACE="$SCRATCH/flags.trace.bin"
run_bounded scenarios/single_rank.scn --trace "$TRACE"
if [[ $status -ne 0 ]]; then
  echo "FAIL recording $TRACE for the iobts_profile cases (exit $status)" >&2
  cat /tmp/scn_err.$$ >&2
  FAILED=1
else
  for args in "--top x" "--top -1" "--link-csv --bins -1" "--from abc" \
      "--to 1e999" "--follow --follow-poll-ms -1" \
      "--follow --follow-max-s nan" "--follow --follow-bytes-per-poll -1"; do
    # shellcheck disable=SC2086 # $args is several words on purpose
    expect_usage_error "iobts_profile $args" "$PROFILE" "$TRACE" $args
  done
fi
rm -rf "$SCRATCH"
rm -f /tmp/scn_out.$$ /tmp/scn_err.$$

if [[ "$FAILED" == 1 ]]; then
  echo "== scenario corpus: FAILED ==" >&2
  exit 1
fi
echo "== scenario corpus: green =="
