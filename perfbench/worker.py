"""One timed pass over one workload, in a fresh interpreter.

run.py starts this file once per pass, so logskel's in-program caches
(``_cone_faces_cached``, ``Fan._cone_cache``) start cold as they do for
every CLI job.  The last line of stdout is the pass result as JSON.

An untraced pass also reports ``wall_ref``: its work time in thousands of
runs of a fixed reference loop, timed every ``PROBE_PERIOD_S`` while the pass
runs.  On the 2-vCPU cloud host the benchmark was tuned on, the speed of
one vCPU switches between states up to 1.8x apart every few seconds,
independently of the other vCPU; a probe interleaved with the work in the
same thread sees the state the work sees, so ``wall_ref`` drops most of
that drift where a wall time cannot.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --out-dir DIR
"""

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

PROBE_PERIOD_S = 0.05


def reference_loop():
    """Fixed pure-Python work of about half a millisecond."""
    total, table = 0, {}
    for i in range(3000):
        table[i & 255] = table.get(i & 255, 0) + i
        total += i * i % 7
    return total


class SpeedProbe:
    """Times ``reference_loop`` from a SIGALRM handler while a pass runs.

    Each stretch of work between two probes is divided by the duration of
    the probe that ends it, so the sum counts the work in reference-loop
    units.  The handler runs between bytecodes of the main thread; a long
    C call (numpy) delays it, and its stretch is then scaled by the probe
    right after it.
    """

    def __init__(self):
        self.marks = []          # (probe start, probe end), perf_counter seconds

    def _probe(self, *_):
        t0 = time.perf_counter()
        reference_loop()
        self.marks.append((t0, time.perf_counter()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._probe()            # the stretch after the last tick needs a probe too

    def probe_s(self):
        return sum(b - a for a, b in self.marks)

    def work_ref(self, start):
        """Work since ``start``, in reference-loop runs (probes left out)."""
        units, last = 0.0, start
        for a, b in self.marks:
            units += (a - last) / (b - a)
            last = b
        return units


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    jobs = workloads.build(args.workload, args.seed, args.out_dir)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    outputs = []
    job_counts = {}
    probe = SpeedProbe()
    t0, c0 = time.perf_counter(), time.process_time()
    with probe if tracer is None else contextlib.nullcontext():  # probes would land in spans
        for job in jobs:
            start = time.perf_counter()
            try:
                out, err = job.run(), None
            except Exception:  # a job that raises is a failed job; the pass goes on
                out, err = None, traceback.format_exc(limit=3)
            outputs.append((out, err, time.perf_counter() - start))
            if tracer is not None:
                job_counts[job.name] = tracer.count_delta()
    wall, cpu = time.perf_counter() - t0 - probe.probe_s(), time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    job_s = {}
    for job, (out, err, secs) in zip(jobs, outputs):
        job_s[job.name] = secs
        if err is None:
            try:
                ok = bool(job.check(out))
            except Exception:
                ok, err = False, traceback.format_exc(limit=3)
            if not ok and err is None:
                err = "output check failed"
        if err is not None:
            failures.append({"job": job.name, "error": err})

    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb, "jobs": len(jobs),
              "failures": failures, "job_s": job_s}
    if probe.marks:
        result.update(wall_ref=probe.work_ref(t0) / 1000, probes=len(probe.marks),
                      probe_ms_median=1000 * statistics.median(b - a for a, b in probe.marks))
    if tracer is not None:
        tracer.counts["cli.output_bytes"] = sum(   # the reports written with -o
            os.path.getsize(os.path.join(args.out_dir, f)) for f in os.listdir(args.out_dir))
        result["layers"] = tracer.metrics()
        result["span_tree"] = tracer.span_tree()
        result["job_counts"] = job_counts
    print(json.dumps(result))


if __name__ == "__main__":
    main()
