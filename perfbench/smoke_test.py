#!/usr/bin/env python3
"""Smoke test of greensph's benchmark at tiny sizes.

Run from the root of a greensph checkout:

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it checks that
  * an untraced and a traced run exit 0, pass every output check, and print
    every end-to-end or per-layer metric by name with its unit, both in the
    report table and in the JSON result line;
  * a run with one deliberately corrupted artifact copy reports
    failed_frac above 0, so the output checks are not vacuous.
It also checks that the benchmark fails, without a result line, in a
directory holding only BENCHMARK.json and perfbench/.
Exits 1 on the first failed assertion.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metrics each workload must measure (not print as "-"), by name prefix.
# The service's request latencies print in its untraced report table.
COMMON_E2E = ["setup_s", "iter_s", "iter_cpu_s", "peak_rss_mb", "failed_frac"]
SERVICE_E2E = ["hit_p50_us", "hit_p99_us", "miss_p50_ms", "miss_p90_ms",
               "requests_per_s"]
MEASURED = {
    ("physics", 0): COMMON_E2E,
    ("replay", 0): COMMON_E2E,
    ("fleet", 0): COMMON_E2E,
    ("service", 0): COMMON_E2E + SERVICE_E2E,
    ("physics", 1): ["sph.", "driver.mandyn_exhaustive_s", "driver.self_s", "core.",
                     "gpusim.", "tuning.exhaustive_sweep_ms",
                     "tuning.launches_exhaustive", "pool.", "physics.", "trace."],
    ("replay", 1): ["sph.", "driver.", "core.", "gpusim.", "tuning.", "pool.",
                    "replay.", "trace."],
    ("service", 1): ["sph.", "service.", "http.", "pool.", "trace.iter_s",
                     "trace.overhead"],
    ("fleet", 1): ["sph.", "fleet.", "pool.", "trace."],
}


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def table_value(stdout, name, unit):
    """The value a report table prints for `name`, or None if the row with
    this unit is missing."""
    pattern = r"^\s+%s\s+(\S+)\s+%s$" % (re.escape(name), re.escape(unit))
    match = re.search(pattern, stdout, re.MULTILINE)
    return match.group(1) if match else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base = ["--seed", "1", "--seconds", "1", "--size", "tiny"]
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", workload, "--trace", str(trace)] + base)
            where = "%s --trace %d" % (workload, trace)
            check(proc.returncode == 0, where + " exited %d:\n%s" %
                  (proc.returncode, proc.stderr[-2000:]))
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  where + " result keys")
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1, where + " failed its output checks")
            for spec in bench[key]:
                got = result["metrics"].get(spec["name"])
                check(got is not None and got["unit"] == spec["unit"],
                      where + " JSON lacks %s [%s]" % (spec["name"], spec["unit"]))
                check(table_value(proc.stdout, spec["name"], spec["unit"]) is not None,
                      where + " table lacks %s [%s]" % (spec["name"], spec["unit"]))
            rows = re.findall(r"^  (\S+)\s+(\S+)\s+\S+$", proc.stdout, re.MULTILINE)
            for prefix in MEASURED[(workload, trace)]:
                hits = [value for name, value in rows if name.startswith(prefix)]
                check(hits and "-" not in hits,
                      where + " did not measure %s*" % prefix)
            print("ok   %s: %d metrics with units, %d checks passed" %
                  (where, len(bench[key]), result["attempted"]))

        proc = run(["--workload", workload, "--trace", "0", "--corrupt"] + base)
        check(proc.returncode == 0, workload + " --corrupt exited %d" % proc.returncode)
        failed_frac = table_value(proc.stdout, "failed_frac", "ratio")
        check(failed_frac is not None and float(failed_frac) > 0.0,
              workload + " --corrupt left failed_frac at %s" % failed_frac)
        print("ok   %s --corrupt: failed_frac %s" % (workload, failed_frac))

    # Only BENCHMARK.json and perfbench/: no sources to build, no result.
    bare = os.path.join(ROOT, ".bench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", bench["workloads"][0]["name"], "--trace", "0"] + base,
               cwd=bare)
    last = proc.stdout.strip().split("\n")[-1] if proc.stdout.strip() else ""
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not last.startswith("{"),
          "a directory without sources produced a result")
    print("ok   bare directory: exit %d, no result" % proc.returncode)
    print("smoke test passed")


if __name__ == "__main__":
    main()
