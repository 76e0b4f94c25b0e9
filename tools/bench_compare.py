#!/usr/bin/env python3
"""Compare bench JSON reports against committed baselines.

Two modes:

  single file:   bench_compare.py baselines/BENCH_x.json BENCH_x.json
  directory:     bench_compare.py bench/baselines .

In directory mode every BENCH_*.json in the baseline directory is compared
against the file of the same name in the current directory (one invocation
gates the whole suite); current-side files with no baseline are listed as
informational.

Files are JsonReport output (bench_common.hpp): a JSON array of records.  A
record is keyed by every identifying field -- bench, dataset, phase and any
parameter such as scale, edge_factor or batch_size -- and not by what it
measured: `seconds`, `throughput` and the nested `measured` object.  The
thread count is part of the key only where one of the two files holds the
same record at several thread counts (a thread sweep).  There, one thread is
keyed as serial; team counts are keyed exactly where a file sweeps several
of them, and otherwise as one "team" class, so a {1, all cores} pair still
compares on a runner with another core count.  Outside a sweep a record
matches whatever thread count either run used.  Two records of one file
with the same key are reported, and the last one is kept.  For every key
present in both files, the current `seconds` is compared to the baseline;
slowdowns beyond the threshold are reported as warnings.

This is a soft gate: it always exits 0 (CI smoke runners are noisy, shared
machines — a hard fail would flake), but the warnings land in the job log,
the ::warning:: annotations surface on the PR, and when GITHUB_STEP_SUMMARY
is set a markdown comparison table lands on the run's summary page.
Regenerate a baseline with e.g.

    ./build/bench/bench_kernels --smoke --json bench/baselines/BENCH_centrality.json

on a quiet machine when an intentional perf change shifts it.

  bench_compare.py --self-test    check the keying and the duplicate notice
"""

import argparse
import contextlib
import glob
import io
import json
import os
import sys
import tempfile

# The measurements JsonReport writes at top level; a bench's other measured
# values sit in the nested "measured" object, skipped with every non-scalar.
MEASURED = ("seconds", "throughput")
NAMED = ("bench", "dataset", "phase", "threads")


def identity(rec):
    """(bench, dataset, phase, sorted identifying (field, value)), threads
    left out."""
    extra = tuple(sorted(
        (field, value) for field, value in rec.items()
        if field not in MEASURED and field not in NAMED
        and not isinstance(value, (dict, list))))
    return (rec.get("bench"), rec.get("dataset"), rec.get("phase"), extra)


def thread_keying(*files):
    """identity -> "exact" or "class" for each record that one of `files`
    (lists of records) holds at several thread counts."""
    keying = {}
    for records in files:
        counts = {}
        for rec in records:
            counts.setdefault(identity(rec), set()).add(rec.get("threads"))
        for ident, threads in counts.items():
            if len(threads) > 1 and keying.get(ident) != "exact":
                keying[ident] = "exact" if len(threads - {1}) > 1 else "class"
    return keying


def key(rec, keying):
    ident = identity(rec)
    threads = rec.get("threads")
    how = keying.get(ident)
    if how == "class":
        threads = "serial" if threads == 1 else "team"
    elif how is None:
        threads = None
    return ident + (threads,)


def label(k):
    bench, dataset, phase, extra, threads = k
    if threads is not None:
        extra += (("threads", threads),)
    params = " ".join(f"{field}={value}" for field, value in extra)
    return f"{bench}/{dataset}/{phase} [{params}]"


def index(path, records, keying):
    out = {}
    shared = {}  # key -> number of records carrying it, when more than one
    for rec in records:
        k = key(rec, keying)
        if k in out:
            shared[k] = shared.get(k, 1) + 1
        out[k] = rec
    for k, count in shared.items():
        print(f"bench_compare: duplicate key in {path}: {count} records "
              f"share {label(k)}; keeping the last")
    return out


def compare_one(baseline_path, current_path, threshold, summary_rows):
    """Compare one baseline/current file pair; returns (compared, warned)."""
    try:
        with open(baseline_path) as f:
            base = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read baseline {baseline_path}: {e}")
        print("bench_compare: skipping comparison (no baseline yet)")
        return 0, 0
    try:
        with open(current_path) as f:
            cur = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read current {current_path}: {e}")
        return 0, 0
    keying = thread_keying(base, cur)
    base = index(baseline_path, base, keying)
    cur = index(current_path, cur, keying)

    warned = 0
    compared = 0
    name = os.path.basename(baseline_path)
    print(f"== {name}: {baseline_path} vs {current_path}")
    for k, rec in sorted(cur.items(), key=str):
        ref = base.get(k)
        if ref is None:
            print(f"  new record (no baseline): {label(k)}")
            continue
        base_s, cur_s = ref.get("seconds"), rec.get("seconds")
        if not base_s or not cur_s:
            continue
        compared += 1
        ratio = cur_s / base_s
        marker = ""
        if ratio > 1.0 + threshold:
            warned += 1
            marker = "  <-- REGRESSION"
            print(f"::warning title=bench regression::{label(k)}: "
                  f"{base_s:.4f}s -> {cur_s:.4f}s ({ratio:.2f}x)")
        print(f"  {label(k)}: {base_s:.4f}s -> {cur_s:.4f}s "
              f"({ratio:.2f}x){marker}")
        summary_rows.append((name, k, base_s, cur_s, ratio,
                             ratio > 1.0 + threshold))
    for k in sorted(base.keys() - cur.keys(), key=str):
        print(f"  record missing from current run: {label(k)}")
    return compared, warned


def write_step_summary(summary_rows, compared, warned, threshold):
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path or not summary_rows:
        return
    with open(path, "a") as f:
        f.write("## Bench comparison\n\n")
        f.write(f"{compared} records compared, **{warned} regressed** "
                f"beyond {threshold:.0%}\n\n")
        f.write("| file | record | baseline (s) | current (s) | ratio |\n")
        f.write("|---|---|---:|---:|---:|\n")
        for name, k, base_s, cur_s, ratio, regressed in summary_rows:
            flag = " :warning:" if regressed else ""
            f.write(f"| {name} | {label(k)} | {base_s:.4f} | {cur_s:.4f} | "
                    f"{ratio:.2f}x{flag} |\n")
        f.write("\n")


def self_test():
    """Keying cases, each a bench of its own: "m" runs at the machine's
    thread count only, so a serial baseline matches a team run; "b" sweeps
    {1, all cores}, matched as serial/team, and differs in a parameter
    (scale); "s" sweeps several team counts, matched exactly.  A changed
    nested measured value keeps its key, a duplicate key in one file is
    reported, and a slowdown is flagged."""
    def rec(bench, threads, seconds, **extra):
        return dict(bench=bench, dataset="d", phase="p", threads=threads,
                    seconds=seconds, throughput=1.0 / seconds, **extra)
    base = [rec("m", 1, 1.0, measured={"q": 0.4}),
            rec("b", 1, 1.0, scale=14), rec("b", 2, 1.0, scale=14),
            rec("b", 2, 4.0, scale=16)]
    base += [rec("s", t, 1.0) for t in (1, 2, 4, 8)]
    cur = [rec("m", 4, 1.0, measured={"q": 0.5}),
           rec("b", 1, 1.0, scale=14), rec("b", 4, 2.0, scale=14),
           rec("b", 8, 4.0, scale=16), rec("b", 8, 4.0, scale=16)]
    cur += [rec("s", t, 1.0) for t in (1, 2, 4)]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, records in (("base.json", base), ("cur.json", cur)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w") as f:
                json.dump(records, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            compared, warned = compare_one(paths[0], paths[1], 0.20, [])
        log = out.getvalue().splitlines()
    notices = [line for line in log if "duplicate key" in line]
    if len(notices) != 1 or paths[1] not in notices[0]:
        failures.append("expected one duplicate-key notice, for the "
                        "repeated current record")
    if (compared, warned) != (7, 1):
        failures.append(f"expected 7 compared / 1 regressed, got "
                        f"{compared} / {warned}")
    unmatched = [line.strip() for line in log
                 if "new record" in line or "record missing" in line]
    if unmatched != ["record missing from current run: s/d/p [threads=8]"]:
        failures.append(f"expected only s at 8 threads unmatched, got "
                        f"{unmatched}")
    for f in failures:
        print(f"self-test FAIL: {f}", file=sys.stderr)
    if failures:
        print("\n".join(log), file=sys.stderr)
        return 1
    print("self-test OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", nargs="?",
                    help="committed baseline JSON file, or a directory of "
                         "BENCH_*.json baselines")
    ap.add_argument("current", nargs="?",
                    help="freshly measured JSON file, or the directory "
                         "holding the fresh BENCH_*.json files")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="relative slowdown that triggers a warning "
                         "(0.20 = 20%%)")
    ap.add_argument("--self-test", action="store_true",
                    help="check the record keying and exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.current is None:
        ap.error("baseline and current are required")

    summary_rows = []
    compared = warned = 0
    if os.path.isdir(args.baseline):
        baselines = sorted(glob.glob(os.path.join(args.baseline,
                                                  "BENCH_*.json")))
        if not baselines:
            print(f"bench_compare: no BENCH_*.json under {args.baseline}")
            return 0
        for b in baselines:
            c = os.path.join(args.current, os.path.basename(b))
            if not os.path.exists(c):
                print(f"== {os.path.basename(b)}: no current-run file "
                      f"({c}), skipped")
                continue
            got_c, got_w = compare_one(b, c, args.threshold, summary_rows)
            compared += got_c
            warned += got_w
        extra = sorted(
            set(os.path.basename(p)
                for p in glob.glob(os.path.join(args.current,
                                                "BENCH_*.json"))) -
            set(os.path.basename(p) for p in baselines))
        for name in extra:
            print(f"== {name}: current-run only (no committed baseline)")
    else:
        compared, warned = compare_one(args.baseline, args.current,
                                       args.threshold, summary_rows)

    write_step_summary(summary_rows, compared, warned, args.threshold)
    print(f"bench_compare: {compared} compared, {warned} regressed beyond "
          f"{args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
