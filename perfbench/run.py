#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ (Release) and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py compare RESULT_A.json RESULT_B.json

A run builds the benchmark binary from source into .bench_build/, runs it
from the repository root, prints its report and a fingerprint line, and
ends with one JSON line: correct, attempted, failed, metrics. The full result
(fingerprint, metrics, per-layer counts) is also written to
.bench_results/<workload>-seed<N>-trace<T>.json. `--workload all` runs every
workload of BENCHMARK.json untraced, then every one traced. `compare` prints
the metric deltas between two such files and refuses files whose build
types, workloads or trace modes differ.

Exit codes: 0 = ok; 1 = build failure, reference mismatch, count
nondeterminism or a failed job; 2 = usage error or refused comparison.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
BINARY = os.path.join(BUILD_DIR, "rkd_perfbench")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ next to perfbench/: nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return os.path.isfile(BINARY)


def source_digest():
    """sha256 over the sources the binary is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(seed, build_line):
    fields = dict(part.split("=", 1) for part in build_line.split()[1:] if "=" in part)
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "build_type": fields.get("type", "unknown"),
        "compiler": fields.get("compiler", "unknown"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def run(args):
    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    if args.perturb:
        command.append("--perturb")
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.splitlines()
    sys.stderr.write(proc.stderr)
    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        log("perfbench: the run printed no result (exit %d)" % proc.returncode)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    build_line = next((l for l in lines if l.startswith("build:")), "build:")
    counts_line = next((l for l in lines if l.startswith("counts ")), "counts {}")
    fp = fingerprint(args.seed, build_line)
    print("\n".join(lines[:-1]))
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                                 args.trace))
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "trace": args.trace, "fingerprint": fp,
                   "result": result, "counts": json.loads(counts_line[len("counts "):])},
                  f, indent=1, sort_keys=True)
    print(lines[-1], flush=True)
    return proc.returncode


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    for key in ("workload", "trace"):
        if a[key] != b[key]:
            print("refused: %s differs (%s vs %s)" % (key, a[key], b[key]))
            return 2
    if a["fingerprint"]["build_type"] != b["fingerprint"]["build_type"]:
        print("refused: build types differ (%s vs %s)" % (a["fingerprint"]["build_type"],
                                                          b["fingerprint"]["build_type"]))
        return 2
    for key in ("git_commit", "source_digest", "compiler", "nproc", "cpu_model", "seed"):
        if a["fingerprint"][key] != b["fingerprint"][key]:
            print("note: %s differs: %s vs %s" % (key, a["fingerprint"][key],
                                                  b["fingerprint"][key]))
    for name, metric in a["result"]["metrics"].items():
        other = b["result"]["metrics"].get(name)
        if other is None:
            print("%-34s only in %s" % (name, path_a))
            continue
        va, vb = metric["value"], other["value"]
        delta = "" if va == 0 else " (%+.2f%%)" % (100.0 * (vb - va) / abs(va))
        print("%-34s %14.6g -> %-14.6g %s%s" % (name, va, vb, metric["unit"], delta))
    if a["fingerprint"]["seed"] == b["fingerprint"]["seed"] and a["counts"] != b["counts"]:
        diff = sorted(k for k in set(a["counts"]) | set(b["counts"])
                      if a["counts"].get(k) != b["counts"].get(k))
        print("counts differ for the same seed: " + ", ".join(diff))
    return 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            log(__doc__)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    parser.add_argument("--perturb", action="store_true",
                        help="change one boundary output (comparator self-test)")
    args = parser.parse_args(argv)
    if args.workload != "all":
        if args.trace is None:
            parser.error("--trace is required for a single workload")
        return run(args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    code = 0
    for trace in (0, 1):
        for workload in workloads:
            code = max(code, run(argparse.Namespace(**{**vars(args), "workload": workload,
                                                       "trace": trace})))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
