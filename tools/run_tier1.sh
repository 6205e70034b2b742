#!/usr/bin/env bash
# Tier-1 gate: the standard build + test line from ROADMAP.md (the ctest
# pass includes alloc_test, the zero-allocation steady-state gate), the
# byte-for-byte corpus regeneration check (tools/check_corpora.sh), plus an
# ASan+UBSan pass over the event-kernel, PFS and tracer hot paths (the code
# most exposed to lifetime bugs: SBO callback relocation, pooled event
# entries and buckets, in-place completion compaction, recycled coroutine
# frames and tracer phases).
#
# A ThreadSanitizer pass over the independent-shard executor follows: the
# sim/pfs/mpisim/parallel/scenario suites rebuilt for -fsanitize=thread, so
# the claim that shards share no state across workers is machine-checked,
# not just argued in comments.
#
# Every tree configures with -DIOBTS_WERROR=ON: the GCC builds are
# warning-clean, so a new warning fails the gate.
#
# Usage: tools/run_tier1.sh [--skip-sanitize] [--skip-tsan] [--tsan-only]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_SANITIZE=0
SKIP_TSAN=0
TSAN_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitize) SKIP_SANITIZE=1 ;;
    --skip-tsan) SKIP_TSAN=1 ;;
    --tsan-only) TSAN_ONLY=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

run_tsan() {
  echo "== tsan: configure + build (TSan, sim+pfs+mpisim+parallel+scenario tests) =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Tsan -DIOBTS_WERROR=ON \
    -DIOBTS_BUILD_BENCH=OFF -DIOBTS_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target sim_test pfs_test mpisim_test parallel_test scenario_test

  echo "== tsan: run sim_test + pfs_test + mpisim_test + parallel_test + scenario_test =="
  # TSan also defeats coroutine symmetric transfer; lift the stack limit.
  ulimit -s unlimited 2>/dev/null || true
  # Every hop of Task.DeepChainDoesNotOverflowStack's 100k-deep await chain
  # takes real stack under TSan, and the run grows past 16 GB: never run it
  # from this tree. It runs in every other build.
  ./build-tsan/tests/sim_test --gtest_filter=-Task.DeepChainDoesNotOverflowStack
  ./build-tsan/tests/pfs_test
  ./build-tsan/tests/mpisim_test
  # The parallel suite is the point: the worker pool, the join and
  # fatal-error capture all run under the race detector.
  ./build-tsan/tests/parallel_test
  # Scenario fuzz + sharded-equivalence: generated programs drive the
  # multi-threaded kernel with the race detector watching.
  ./build-tsan/tests/scenario_test
}

if [[ "$TSAN_ONLY" == 1 ]]; then
  run_tsan
  echo "== tsan: green =="
  exit 0
fi

echo "== tier-1: configure + build =="
cmake -B build -S . -DIOBTS_WERROR=ON >/dev/null
cmake --build build -j "$(nproc)"

echo "== tier-1: ctest =="
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "== tier-1: corpora regenerate byte for byte =="
# The checked-in invalid trace and checkpoint corpora are encoder output;
# any drift in the binlog or checkpoint bytes fails here.
tools/check_corpora.sh build

echo "== tier-1: test-registration audit =="
# Every *_test binary in the build tree must be ctest-registered (the
# manifest is written by tests/CMakeLists.txt). A suite that compiles but
# never runs is a silent coverage hole -- fail loudly.
MANIFEST=build/tests/registered_tests.txt
if [[ ! -f "$MANIFEST" ]]; then
  echo "missing $MANIFEST -- reconfigure the build" >&2
  exit 1
fi
AUDIT_FAILED=0
for bin in build/tests/*_test; do
  [[ -f "$bin" && -x "$bin" ]] || continue
  name="$(basename "$bin")"
  if ! grep -qx "$name" "$MANIFEST"; then
    echo "test binary '$name' exists but is not ctest-registered" >&2
    AUDIT_FAILED=1
  fi
done
if [[ "$AUDIT_FAILED" == 1 ]]; then
  echo "== tier-1: registration audit FAILED ==" >&2
  exit 1
fi
echo "all $(grep -c . "$MANIFEST") test binaries registered"

if [[ "$SKIP_SANITIZE" == 1 && "$SKIP_TSAN" == 1 ]]; then
  echo "== sanitize + tsan passes skipped =="
  exit 0
fi

if [[ "$SKIP_SANITIZE" == 1 ]]; then
  echo "== sanitize pass skipped (--skip-sanitize) =="
  run_tsan
  echo "== tier-1: all green =="
  exit 0
fi

echo "== sanitize: configure + build (ASan+UBSan, sim+pfs+mpisim+throttle+fault+scenario+ckpt+obs+tmio+alloc tests) =="
cmake -B build-sanitize -S . -DCMAKE_BUILD_TYPE=Sanitize -DIOBTS_WERROR=ON \
  -DIOBTS_BUILD_BENCH=OFF -DIOBTS_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-sanitize -j "$(nproc)" --target sim_test pfs_test mpisim_test throttle_test fault_test scenario_test ckpt_test obs_test tmio_test alloc_test

echo "== sanitize: run sim_test + pfs_test + mpisim_test + throttle_test + fault_test + scenario_test + ckpt_test + obs_test + tmio_test + alloc_test =="
# ASan instrumentation defeats the coroutine symmetric-transfer tail call,
# so the 100k-deep Task chain test consumes real stack per hop; lift the
# stack limit for the sanitized run only.
ulimit -s unlimited 2>/dev/null || true
./build-sanitize/tests/sim_test
./build-sanitize/tests/pfs_test
# The request path recycles coroutine frames (the link's transfer records
# live in the transfer frames) and request state through the per-thread
# FrameCache; the mpisim and throttle suites drive that reuse (poisoned
# while cached) end to end.
./build-sanitize/tests/mpisim_test
./build-sanitize/tests/throttle_test
# The fault suite crosses every layer (fault plan -> link -> engine ->
# world) including teardown-by-abort paths: prime lifetime-bug ground.
./build-sanitize/tests/fault_test
# The scenario suite's error-path and 512-seed fuzz coverage is the point
# here: malformed documents and generated programs must never trip
# ASan/UBSan anywhere in the lexer -> parser -> compiler -> runtime chain.
./build-sanitize/tests/scenario_test
# The ckpt suite decodes deliberately corrupt binary containers -- the
# invalid corpus and thousands of seeded mutants of a valid checkpoint --
# and replays captured state through the full restore-verify path: the
# encoder, the strict reader's bounds handling, and snapshot teardown all
# run sanitized.
./build-sanitize/tests/ckpt_test
# The obs suite sweeps the traces/invalid/ corrupt-container corpus and
# thousands of seeded binlog mutants through the strict, windowed and tail
# readers, and round-trips writer output through the profiler aggregates:
# byte-level bounds handling under ASan/UBSan.
./build-sanitize/tests/obs_test
# The tracer recycles phase objects per rank and erases live requests by
# index from a flat vector: lifetime and bounds bugs there show up here.
./build-sanitize/tests/tmio_test
# The zero-allocation gate again, with ASan+UBSan watching the kernel,
# resolve, scenario-interpreter and MPI-IO paths it exercises.
./build-sanitize/tests/alloc_test

if [[ "$SKIP_TSAN" == 1 ]]; then
  echo "== tsan pass skipped (--skip-tsan) =="
else
  run_tsan
fi

echo "== tier-1: all green =="
