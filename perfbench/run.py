#!/usr/bin/env python3
"""logskel benchmark: one closed-loop client running batch jobs one at a time.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  For one workload the last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
``--workload all`` runs the four workloads in turn; its metric names carry
the workload as a prefix.

Set-up: ``setup_s`` is the median wall time of fresh interpreters that start
and import ``logskel.cli``, the floor every CLI job pays; half are timed
before the passes and half after.  Measurement: each pass runs in a fresh
interpreter (perfbench/worker.py), so in-program caches start cold; another
pass starts while half of one still fits in ``--seconds``.  An untraced pass
reports its raw ``wall_s`` and ``wall_ref``, the same work in reference-loop
runs timed alongside it; the run reports the median of each.  A traced run
alternates untraced and traced passes; ``trace.overhead_s`` is the difference
of their median walls, ``trace.uncovered_s`` the time of a traced pass that no
span covers.  Everything written goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 8
# Times of an untraced pass: raw wall seconds, and the same work in
# thousands of reference-loop runs (worker.py), which host drift leaves alone.
PASS_TIMES = {"wall_s": "s", "wall_ref": "kref"}
RUN_CAP_S = 150          # start no pass that could end after this (limit is 180 s)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(seed):
    """Environment of every child: logskel from ``src``, threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = str(seed % 2**32)   # passes of one seed repeat exactly
    cap = nproc()
    for var in THREAD_VARS:
        try:
            env[var] = str(max(1, min(int(env.get(var, cap)), cap)))
        except ValueError:
            env[var] = str(cap)
    return env


def environment(seed, env):
    def ram_mb():
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) // 1024
        return None

    def numpy_version():
        from importlib import metadata
        try:
            return metadata.version("numpy")
        except metadata.PackageNotFoundError:
            return None

    def commit():
        if not os.path.isdir(os.path.join(ROOT, ".git")):
            return None
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or None

    return {"nproc": nproc(), "ram_mb": ram_mb(), "python": platform.python_version(),
            "numpy": numpy_version(), "commit": commit(),
            "src_sha256": digest("src/logskel/*.py"),
            "inputs_sha256": digest("src/logskel/*.py", "fixtures/*.json", "perfbench/*.py"),
            "seed": seed, "threads": {v: env[v] for v in THREAD_VARS}}


def digest(*patterns):
    """SHA-256 over the files matching ``patterns`` under the root, with their paths."""
    h = hashlib.sha256()
    for pattern in patterns:
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path, "rb") as fh:
                h.update(os.path.relpath(path, ROOT).encode() + b"\0" + fh.read())
    return h.hexdigest()


def measure_setup(env, count):
    """Wall times of fresh interpreters that start and import logskel.cli."""
    argv = [sys.executable, "-c", "import logskel.cli"]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=60)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError("importing logskel.cli failed:\n" + proc.stderr.decode()[-2000:])
    return samples


def run_pass(workload, seed, trace, env, timeout):
    jobs_dir = os.path.join(OUT, "jobs")
    shutil.rmtree(jobs_dir, ignore_errors=True)   # no stale report can pass a check
    os.makedirs(jobs_dir)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), "--out-dir", jobs_dir]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"pass exceeded {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return None, f"worker printed no result: {lines[-1][:200]}"


def tail(values):
    """Highest percentile with at least ten samples above it, or None."""
    if len(values) < 11:
        return None
    n = len(values)
    return {"percentile": round(100 * (n - 10) / n, 1), "value": sorted(values)[n - 11]}


def run_workload(workload, seed, seconds, trace):
    """Set up, run passes for ``seconds``, return the run's full record."""
    env = child_env(seed)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment(seed, env)}
    start = time.perf_counter()
    measure_setup(env, 1)   # may write bytecode caches; not counted
    setup = measure_setup(env, SETUP_SAMPLES // 2)

    passes, errors = [], []
    attempted = failed = 0
    longest = 0.0
    t_measure = time.perf_counter()
    while True:
        kinds = [p["traced"] for p in passes]
        elapsed = time.perf_counter() - t_measure
        need = not passes or (trace and (kinds.count(True) < 1 or kinds.count(False) < 1))
        if not need and elapsed + longest / 2 >= seconds:
            break   # a run measures about ``seconds``: half a pass must still fit
        if not need and time.perf_counter() - start + longest > RUN_CAP_S:
            break
        traced = bool(trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        result, err = run_pass(workload, seed, int(traced), env,
                               timeout=max(30.0, RUN_CAP_S - (t0 - start)))
        longest = max(longest, time.perf_counter() - t0)
        if result is None:   # a crashed pass fails every job of the last good one
            jobs = passes[-1]["jobs"] if passes else 1
            attempted += jobs
            failed += jobs
            errors.append(err)
            break
        attempted += result["jobs"]
        failed += len(result["failures"])
        errors += [f"{f['job']}: {f['error']}" for f in result["failures"]]
        result["traced"] = traced
        passes.append(result)

    # the rest of the set-up samples come after the passes, so that the
    # median spans the run as the pass times do
    setup += measure_setup(env, SETUP_SAMPLES - len(setup))
    record["setup_s"], record["setup_samples"] = statistics.median(setup), setup
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    record.update(passes=passes, attempted=attempted, failed=failed, errors=errors)
    if plain:
        for name in PASS_TIMES:
            samples = [p[name] for p in plain]
            record[name], record[name + "_tail"] = statistics.median(samples), tail(samples)
            record[name + "_samples"] = samples
        record["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in plain)
    if traced_passes:
        record["layers"] = layer_metrics(traced_passes, record, errors)
    return record


def layer_metrics(traced_passes, record, errors):
    """Median per-layer times; counts must repeat exactly across passes and runs."""
    names = traced_passes[0]["layers"].keys()
    counts = spans.COUNT_METRICS
    out = {}
    for name in names:
        values = [p["layers"][name] for p in traced_passes]
        if name in counts:
            if len(set(values)) != 1:
                errors.append(f"count {name} differs between passes: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    check_count_ledger(record, {k: v for k, v in out.items() if k in counts}, errors)
    t_wall = statistics.median(p["wall_s"] for p in traced_passes)
    self_totals = [sum(v for k, v in p["layers"].items() if k.endswith(".self_s"))
                   for p in traced_passes]
    out["trace.wall_s"] = t_wall
    out["trace.self_total_s"] = statistics.median(self_totals)
    out["trace.uncovered_s"] = statistics.median(
        p["wall_s"] - total for p, total in zip(traced_passes, self_totals))
    if "wall_s" in record:
        out["trace.overhead_s"] = t_wall - record["wall_s"]
    return out


def check_count_ledger(record, counts, errors):
    """Compare counts with the first correct traced run of this seed and code.

    The ledger is keyed by a digest of the logskel sources, the fixtures and
    the benchmark, so counts must repeat for the same code, not across
    commits; it is written only by a run with no failed job.
    """
    seed = record["seed"]
    key = record["env"]["inputs_sha256"][:12]
    path = os.path.join(OUT, "counts", f"{record['workload']}-seed{seed}-{key}.json")
    if os.path.exists(path):
        with open(path) as fh:
            first = json.load(fh)
        for name, value in counts.items():
            if name in first and first[name] != value:
                errors.append(f"count {name} is {value}, earlier run of seed {seed}: {first[name]}")
    elif not errors:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(counts, fh, sort_keys=True, indent=1)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return doc["end_to_end"], doc["per_layer"]


def metric_values(record, trace, contract):
    end_to_end, per_layer = contract
    if trace:
        have, wanted = record.get("layers", {}), per_layer
    else:
        have = {k: record.get(k) for k in (*PASS_TIMES, "setup_s", "peak_rss_mb")}
        wanted = end_to_end
    out = {}
    for m in wanted:
        if have.get(m["name"]) is None:
            raise BenchError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": have[m["name"]], "unit": m["unit"]}
    return out


def describe(record):
    """Human-readable lines for one workload's end-to-end metrics."""
    wl = record["workload"]
    lines = []
    for name, unit in PASS_TIMES.items():
        t = record.get(name + "_tail")
        tail_txt = (f"p{t['percentile']} {t['value']:.4f} {unit}" if t
                    else "no tail percentile (needs > 10 passes)")
        lines.append(f"{wl}: {name} median {record.get(name, float('nan')):.4f} {unit}, "
                     f"{tail_txt}, {len(record.get(name + '_samples', []))} passes")
    ratio = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    lines += [
        f"{wl}: setup_s median {record['setup_s']:.4f} s over {len(record['setup_samples'])} "
        f"interpreter starts",
        f"{wl}: peak_rss_mb median {record.get('peak_rss_mb', float('nan')):.1f} MB",
        f"{wl}: fail_ratio {ratio:.4f} ({record['failed']} of {record['attempted']} jobs)",
    ]
    return lines + [f"{wl}: error: {e}" for e in record["errors"][:20]]


def save(record):
    os.makedirs(OUT, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "logskel", "cli.py")):
        print(f"error: no logskel sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        contract = load_contract()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        metrics = {}
        attempted = failed = 0
        correct = True
        for wl in names:
            record = run_workload(wl, args.seed, args.seconds, args.trace)
            save(record)
            if wl == names[0]:
                print(json.dumps({"env": record["env"]}, sort_keys=True))
            for line in describe(record):
                print(line)
            values = metric_values(record, args.trace, contract)
            if args.trace:
                for name, v in values.items():
                    print(f"{wl}: {name} {v['value']} {v['unit']}")
                traced = [p for p in record["passes"] if p["traced"]]
                if traced and len(traced[0]["job_counts"]) <= 10:
                    for job, counts in traced[0]["job_counts"].items():
                        if counts:
                            print(f"{wl}: job {job}: " + ", ".join(
                                f"{k} {v}" for k, v in sorted(counts.items())))
            prefix = f"{wl}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in values.items()})
            attempted += record["attempted"]
            failed += record["failed"]
            correct = correct and not record["errors"] and record["failed"] == 0
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
