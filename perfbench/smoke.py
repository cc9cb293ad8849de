#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes (about a minute).

    python3 perfbench/smoke.py

For every workload it checks that:
  * an untraced and a traced run each exit 0 and end with a JSON line whose
    metrics are exactly BENCHMARK.json's end_to_end / per_layer names and
    units, and that error_rate is printed with both of its counts;
  * two untraced runs and the traced run of one seed print identical counts;
  * an untraced and a traced run in which one boundary output is changed
    after the call returns (inputs unchanged) are flagged by the reference
    comparator: exit 1, "REFERENCE MISMATCH", correct = false.
Exit code 0 when every check holds, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build step and paths)

SEED = 7
SECONDS = "0.2"


def run_tiny(workload, trace, *extra):
    command = [run.BINARY, "--workload", workload, "--seed", str(SEED), "--seconds", SECONDS,
               "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    counts = next((l for l in lines if l.startswith("counts ")), None)
    return proc.returncode, proc.stdout, result, counts


def main():
    if not run.build():
        print("FAIL: build")
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print("  [%s] %s" % ("ok" if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in bench["workloads"]]:
        print(workload)
        counts_seen = []
        for trace in (0, 1, 0):
            code, stdout, result, counts = run_tiny(workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  "trace %d run exits 0 with a correct result" % trace)
            if result is None:
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  "trace %d result has exactly correct/attempted/failed/metrics" % trace)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected[trace],
                  "trace %d metrics match BENCHMARK.json names and units" % trace)
            if trace == 0:
                check(re.search(r"error_rate\s+\S+ ratio \(\d+ failed / \d+ attempted\)",
                                stdout) is not None, "error_rate printed with both counts")
            counts_seen.append(counts)
        check(len(counts_seen) == 3 and counts_seen[0] is not None and
              len(set(counts_seen)) == 1,
              "counts identical across two untraced runs and the traced run")
        for trace in (0, 1):
            code, stdout, result, _ = run_tiny(workload, trace, "--perturb")
            check(code == 1 and "REFERENCE MISMATCH" in stdout and result is not None and
                  not result["correct"] and result["failed"] > 0,
                  "trace %d: a perturbed boundary output fails the reference check" % trace)

    print("smoke: %s" % ("all checks held" if not failures else
                         "%d check(s) failed" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
