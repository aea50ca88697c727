#!/usr/bin/env python3
"""Build and run greensph's benchmark.

Usage, from the root of a greensph checkout:

    python3 perfbench/run.py --workload physics|replay|service|fleet \\
        --seed N --seconds S --trace 0|1 [--size full|tiny] [--corrupt]

Builds greensph's library from ./src and the harness in perfbench/ into
.bench_build/perfbench (Release; incremental after the first run), runs the
harness, and echoes its report.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; metrics
holds every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1), each as {"value": v, "unit": u}.  Run
records and Perfetto traces land in .bench_out/.

Exits non-zero, without a result line, when the checkout lacks greensph's
sources or BENCHMARK.json, when the build fails, or when the harness fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
HARNESS_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the checkout root", 2)
    with open(path) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("greensph sources (src/) not found next to perfbench/", 2)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step), 3)
    return os.path.join(BUILD_DIR, "perfbench")


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """Content hash of src/ and perfbench/, so runs of the same code match
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one reference artifact copy (smoke test)")
    args = parser.parse_args()

    bench = load_benchmark()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload " + args.workload, 2)
    binary = build()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out-dir", OUT_DIR,
           "--commit", commit_id(), "--source-digest", source_digest()]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S, 4)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("harness failed with exit code %d" % proc.returncode, 4)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            fail("harness did not report %s in %s" % (spec["name"], spec["unit"]), 4)
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
