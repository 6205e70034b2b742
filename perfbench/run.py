#!/usr/bin/env python3
"""Build the perfbench program and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (CMake, Release) into .bench_build/perfbench
under the repository root, then runs it. Build output goes to
stderr, so the last line on stdout is its JSON result. Further
perfbench flags (--scale, --pin-digest, ...) pass through; see
perfbench/main.cpp. Exits non-zero when the build or any case fails.
"""
import fcntl
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    """Configure once, then bring the build up to date; True on success."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    # Concurrent runs in one checkout must not build over each other.
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j",
                      str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                return False
    return True


def flag_value(args, flag, default):
    for i, arg in enumerate(args[:-1]):
        if arg == flag:
            return args[i + 1]
    return default


def main(args):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    scratch = os.path.join(BUILD_ROOT, "scratch")
    os.makedirs(scratch, exist_ok=True)
    command = [BINARY, "--scratch", scratch]
    if flag_value(args, "--trace", "0") == "1":
        workload = flag_value(args, "--workload", "none")
        command += ["--spans", os.path.join(scratch, workload + ".spans.json")]
    child = subprocess.Popen(command + args)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()


if __name__ == "__main__":
    # Turn SIGTERM into an exception so the perfbench child is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main(sys.argv[1:]))
