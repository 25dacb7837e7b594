#!/usr/bin/env python3
"""Compare the working tree with a parent commit on the declared benchmark.

    python3 scripts/bench_pairs.py --parent REV --seed S --out BENCH_<pr>.json
        [--pairs N]

Run from inside the repository.  The parent is exported with ``git archive``
into ``<tmp>/parent`` and the working tree's files (tracked or untracked, not
ignored) are copied into ``<tmp>/change``, so both sides run from checkouts of
one path length: ``peak_rss_mb`` moves with the length of the checkout path.
The temporary directory is removed on exit.  Each pair runs the benchmark
command of BENCHMARK.json (``perfbench/run.py``) once per side and workload on
one seed, seeds S, S+1, ...; the side that goes first alternates from pair to
pair, so drift of the host falls on both sides alike.  The benchmark's own checks
decide whether a run is correct, and its run length, end-to-end metrics,
directions and bounds come from BENCHMARK.json, so nothing is restated
here.  One ``--trace 1`` run per side and workload on seed 1 records the
per-layer metrics, whose counts repeat exactly for one seed and code.

The output file holds, per workload and end-to-end metric, each side's
median, quartiles and samples, the pairs the change won, whether the change
median stays within the bound, and whether it is a clear gain: better in at
least 9 of 10 pairs and by more than the parent's interquartile range.  The
exit code is 0 when every run was correct and every metric within its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

TRACE_SEED = 1      # the seed of the per-layer counts quoted in CHANGES.md
TRACE_SECONDS = 1   # one untraced and one traced pass


def git(root, *args):
    out = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def copy_working_tree(root, dest):
    """Copies the files ``git ls-files`` lists as tracked or untracked and not
    ignored from ``root`` into ``dest``; a tracked file deleted from the
    working tree is left out."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=root, capture_output=True, check=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        if os.path.isfile(os.path.join(root, name)):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(os.path.join(root, name), os.path.join(dest, name))


def bench(root, command, workload, seed, seconds, trace):
    """The last-line result of one benchmark run in ``root``."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit_code"] = proc.returncode
    result["correct"] = result["correct"] and proc.returncode == 0
    if not result["correct"]:
        result["log"] = (proc.stdout + proc.stderr)[-2000:]
    return result


def summary(samples):
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "samples": samples}


def compare(metric, parent, change):
    """Pairwise and median comparison of one end-to-end metric."""
    sign = 1 if metric["better"] == "lower" else -1
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    worse_by = sign * (c["median"] - p["median"]) / abs(p["median"]) if p["median"] else 0.0
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": p, "change": c, "pairs": len(parent), "change_won": won,
        "relative_change": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
        "within_bound": worse_by <= metric["bound"],
        "clear_gain": won >= 0.9 * len(parent) and
        sign * (p["median"] - c["median"]) > p["q3"] - p["q1"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit to compare the working tree with")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    names = [w["name"] for w in contract["workloads"]]
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    parent_rev = git(root, "rev-parse", args.parent)

    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    sides = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
    try:
        os.mkdir(sides["parent"])
        archive = subprocess.run(["git", "archive", parent_rev], cwd=root, capture_output=True,
                                 check=True)
        subprocess.run(["tar", "-x", "-C", sides["parent"]], input=archive.stdout, check=True)
        copy_working_tree(root, sides["change"])
        runs = {wl: {side: [] for side in sides} for wl in names}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for wl in names:
                for side in order:
                    result = bench(sides[side], contract["command"], wl, seed,
                                   contract["run_seconds"], 0)
                    runs[wl][side].append(result)
                    print(f"pair {i + 1}/{args.pairs} seed {seed} {wl} {side}: "
                          f"correct {result['correct']}, " + ", ".join(
                              f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                          file=sys.stderr, flush=True)
        traces = {wl: {side: bench(sides[side], contract["command"], wl, TRACE_SEED,
                                   TRACE_SECONDS, 1)
                       for side in sides} for wl in names}
    finally:
        shutil.rmtree(tmp)

    ok = True
    report = {
        "parent": parent_rev,
        "change": "working tree at " + git(root, "rev-parse", "HEAD"),
        "protocol": {"pairs": args.pairs, "seeds": [args.seed + i for i in range(args.pairs)],
                     "seconds": contract["run_seconds"],
                     "order": "parent first in odd-numbered pairs",
                     "command": contract["command"]},
        "host": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()},
        "workloads": {},
    }
    for wl in names:
        side_runs = runs[wl]
        correct = all(r["correct"] for side in side_runs.values() for r in side) and \
            all(r["correct"] for r in traces[wl].values())
        metrics = {}
        if correct:
            for m in contract["end_to_end"]:
                metrics[m["name"]] = compare(
                    m, *[[r["metrics"][m["name"]]["value"] for r in side_runs[side]]
                         for side in ("parent", "change")])
        ok = ok and correct and all(v["within_bound"] for v in metrics.values())
        report["workloads"][wl] = {
            "correct": correct,
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in side_runs.items()},
            "errors": [r["log"] for rs in [*side_runs.values(), traces[wl].values()]
                       for r in rs if not r["correct"]],
            "metrics": metrics,
            "trace": {"seed": TRACE_SEED, **{
                side: {k: v["value"] for k, v in traces[wl][side]["metrics"].items()}
                for side in ("parent", "change")}},
        }
        for name, v in metrics.items():
            print(f"{wl}: {name} {v['parent']['median']:.4g} [{v['parent']['q1']:.4g}, "
                  f"{v['parent']['q3']:.4g}] -> {v['change']['median']:.4g} "
                  f"[{v['change']['q1']:.4g}, {v['change']['q3']:.4g}] {v['unit']}, "
                  f"change won {v['change_won']}/{v['pairs']}, within bound {v['within_bound']}, "
                  f"clear gain {v['clear_gain']}")
        if not correct:
            print(f"{wl}: a run was not correct; see the errors in {args.out}")
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
