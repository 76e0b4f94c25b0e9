#!/usr/bin/env python3
"""SNAP benchmark: the offline pipeline and the graph service, end to end.

    python3 perfbench/run.py --workload offline-rmat --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Builds perfbench/ (and the snap library
from src/) into .bench_build/ on first use, runs one workload once, prints
a human-readable report, and prints as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
--workload all runs every workload in turn (reports only, no JSON line).
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("offline-rmat", "service-ingest")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# A run is invalid when the load generator itself ran late: its p99 send
# delay, beyond any wait for the previous response, exceeds this.
LATE_P99_BOUND_MS = 20.0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build; returns the perfbench binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("src/ not found next to perfbench/: run from the "
                           "root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                    str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Run the binary once; returns the parsed raw record."""
    runs = os.path.join(ROOT, ".bench_build", "runs")
    tmpdir = os.path.join(ROOT, ".bench_build", "tmp", str(os.getpid()))
    os.makedirs(runs, exist_ok=True)
    os.makedirs(tmpdir, exist_ok=True)
    out = os.path.join(runs, "%s-seed%d-trace%d.json" % (workload, seed,
                                                        trace))
    try:
        subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace),
                        "--tmpdir", tmpdir, "--out", out],
                       check=True, stdout=sys.stderr,
                       timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    with open(out) as f:
        return json.load(f)


def report(workload, record, trace):
    """Metrics, validity and the human-readable report for one run."""
    run = stats.Run(record)
    table = stats.PER_LAYER if trace else stats.END_TO_END
    metrics = stats.compute(table, run)
    tails = {} if trace else stats.compute(stats.TAILS, run)
    attempted = int(record["attempted"])
    failed = int(record["failed"])
    late_p99 = stats.percentile(run.sample("loadgen.late_ms"), 99) \
        if run.samples.get("loadgen.late_ms") else 0.0
    valid = late_p99 <= LATE_P99_BOUND_MS
    print("== %s (%s run, %d kernel threads)" %
          (workload, "traced" if trace else "untraced", record["threads"]))
    for name, m in metrics.items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, m in tails.items():
        print("  %-36s %14.6g %s (not gated)" % (name, m["value"], m["unit"]))
    print("  %-36s %14.6g (%d failed of %d attempted)" %
          ("error_rate", failed / max(attempted, 1), failed, attempted))
    if late_p99:
        print("  %-36s %14.6g ms (bound %g ms)" %
              ("generator late p99", late_p99, LATE_P99_BOUND_MS))
    for msg in record.get("failures", []):
        print("  FAILED: " + msg)
    if not valid:
        print("  INVALID: the load generator ran late beyond its bound")
    return {"correct": failed == 0 and valid, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        binary = build()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            result = report(name, run_once(binary, name, args.seed,
                                           args.seconds, args.trace),
                            args.trace)
    except (RuntimeError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    if args.workload != "all":
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
