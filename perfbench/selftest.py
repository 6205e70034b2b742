#!/usr/bin/env python3
"""Self-tests of the benchmark, at tiny scale, for every workload.

    python3 perfbench/selftest.py

Builds perfbench like run.py, then checks for each workload that
  1. the untraced and the traced run exit 0 and print every metric
     BENCHMARK.json names, with its unit, plus error_rate 0;
  2. a deliberately wrong pinned digest fails every case: error_rate 1 and
     a non-zero exit;
  3. the traced run's spans nest inside their parents.
Prints one line per check and exits non-zero if any fails.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step and paths)

SCRATCH = os.path.join(run.BUILD_ROOT, "selftest")


def expect(condition, what):
    if not condition:
        raise AssertionError(what)


def bench(workload, *extra):
    command = [run.BINARY, "--workload", workload, "--scale", "tiny",
               "--seconds", "0.2", "--seed", "3", "--scratch", SCRATCH]
    done = subprocess.run(command + list(extra), capture_output=True,
                          text=True, timeout=120)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1]) if lines else None


def error_rate(lines):
    for line in lines:
        match = re.match(r"metric\s+error_rate\s+(\S+)\s+ratio", line)
        if match:
            return float(match.group(1))
    raise AssertionError("no error_rate line")


def check_metrics(lines, result, declared):
    """Every declared metric, by name and unit, in the JSON and the text."""
    expect(result["correct"] and result["failed"] == 0, result)
    expect(result["attempted"] >= 1, result)
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in declared}, sorted(metrics))
    for m in declared:
        expect(metrics[m["name"]]["unit"] == m["unit"], m)
        expect(isinstance(metrics[m["name"]]["value"], (int, float)), m)
        pattern = r"metric\s+%s\s+\S+\s+%s$" % (re.escape(m["name"]),
                                               re.escape(m["unit"]))
        expect(any(re.match(pattern, line) for line in lines), m["name"])
    expect(error_rate(lines) == 0.0, "error_rate is not 0")


def check_wrong_digest(workload):
    code, lines, result = bench(workload, "--pin-digest", "1")
    expect(code != 0, "exit code 0 with a wrong pinned digest")
    expect(result["failed"] == result["attempted"] >= 1, result)
    expect(not result["correct"], result)
    expect(error_rate(lines) == 1.0, "error_rate is not 1")


def check_spans(path):
    with open(path) as f:
        doc = json.load(f)
    spans = doc["spans"]
    expect(spans, "no spans recorded")
    for span in spans:
        expect(span["end_s"] >= span["start_s"], span)
        if span["parent"]:
            parent = spans[span["parent"] - 1]
            expect(parent["start_s"] <= span["start_s"], (parent, span))
            expect(span["end_s"] <= parent["end_s"], (parent, span))
    for aggregate in doc["aggregates"]:
        expect(0 < aggregate["parent"] <= len(spans), aggregate)
        expect(aggregate["count"] >= 0 and aggregate["total_s"] >= 0,
               aggregate)


def main():
    if not run.build():
        print("selftest: build failed", file=sys.stderr)
        return 1
    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        spans = os.path.join(SCRATCH, workload + ".spans.json")

        def untraced():
            code, lines, result = bench(workload, "--trace", "0")
            expect(code == 0, lines)
            check_metrics(lines, result, spec["end_to_end"])

        def traced():
            code, lines, result = bench(workload, "--trace", "1",
                                        "--spans", spans)
            expect(code == 0, lines)
            check_metrics(lines, result, spec["per_layer"])
            check_spans(spans)

        checks = [("metrics, untraced", untraced),
                  ("metrics and span nesting, traced", traced),
                  ("wrong pinned digest fails",
                   lambda: check_wrong_digest(workload))]
        for label, check in checks:
            try:
                check()
                print("ok    %s: %s" % (workload, label))
            except (AssertionError, ValueError, OSError, KeyError) as e:
                failures += 1
                print("FAIL  %s: %s: %r" % (workload, label, e))
    print("selftest: %d failure(s)" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
