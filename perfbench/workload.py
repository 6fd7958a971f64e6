"""One workload in one single-threaded process: the timed part of a run.

Usage: python3 perfbench/workload.py WORKLOAD SEED SECONDS TRACE RESULT

Runs whole rounds of the workload's jobs, closed loop, until SECONDS have
passed.  Each job is one in-process ``grtsurf.cli.main(argv)`` call, with
the reference kernel sampled by a timer while it runs.  With TRACE 1,
rounds alternate untraced and traced, so the run measures its own tracing
overhead; traced jobs run without the sampler, whose kernel runs would
otherwise land in the spans.
Everything measured goes to the JSON file RESULT; the spans of the traced
jobs go to ``<RESULT without .json>-spans.npz``.  Checks happen elsewhere.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import signal
import sys
import time
import traceback

import numpy as np

import jobs
import refkernel
import spantrace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from grtsurf import cli  # noqa: E402


class Sampler:
    """Runs the reference kernel every PERIOD_S of wall time while started.

    The host's speed wanders on a scale of a second, so a kernel run before
    or after a job says little about the job; one taken every 50 ms during
    the job tracks it.  A SIGALRM handler runs between two bytecodes of the
    job and touches none of its state.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self.times: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        self.times.append(refkernel.run())

    def start(self) -> None:
        self.times = []
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def _run_job(job: jobs.Job, sampler: Sampler | None) -> tuple[object, float, str]:
    buf = io.StringIO()
    if sampler:
        sampler.start()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(job.argv))
    except Exception:  # a traceback is a failed job, not a failed run
        rc = traceback.format_exc()
    finally:
        if sampler:
            sampler.stop()
    return rc, time.perf_counter() - start, buf.getvalue()


def _digest(path: str) -> tuple[str | None, int]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None, 0
    return hashlib.sha256(data).hexdigest(), len(data)


def main(workload: str, seed: int, seconds: float, traced_run: bool,
         result_path: str) -> None:
    os.chdir(ROOT)
    out_dir = os.path.join("perfbench", "out", workload)
    os.makedirs(out_dir, exist_ok=True)
    plan = jobs.make(workload, seed, out_dir)
    order_rng = random.Random(seed + 1)
    tracer = spantrace.Tracer() if traced_run else None
    sampler = Sampler()

    for _ in range(20):
        refkernel.run()  # warm-up, not counted
    records = []
    spans = []
    start = time.perf_counter()
    round_index = 0
    # Whole rounds only, at least two so every output is written twice,
    # and in a traced run whole (untraced, traced) pairs: every run
    # attempts the same mix of jobs.
    while (round_index < 2 or time.perf_counter() - start < seconds
           or (traced_run and round_index % 2 == 1)):
        traced = traced_run and round_index % 2 == 1
        for job in jobs.round_order(plan, order_rng):
            # Each job starts from a collected heap, as a fresh command
            # would, so peak memory and GC pauses do not depend on the order.
            gc.collect()
            if traced:
                tracer.install()
            rc, elapsed, stdout = _run_job(job, None if traced else sampler)
            kernel_s = [] if traced else sampler.times
            layers = None
            if traced:
                tracer.uninstall()
                table = tracer.take()
                spans.append((job.case, table))
                layers = table.summary()
            digest, size = _digest(job.out)
            records.append({
                "case": job.case, "round": round_index, "traced": traced,
                "rc": rc, "raw_s": elapsed - sum(kernel_s), "kernel_s": kernel_s,
                "sha256": digest, "bytes": size, "points": job.points,
                "stdout": stdout,
                "layers": layers,
            })
        round_index += 1
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if spans:
        arrays = {"names": np.array(spantrace.NAMES),
                  "cases": np.array([case for case, _ in spans])}
        for k, (_, table) in enumerate(spans):
            arrays[f"job{k}"] = np.column_stack(
                [table.name, table.start, table.end, table.parent])
        np.savez_compressed(result_path[:-len(".json")] + "-spans.npz", **arrays)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "peak_rss_kb": peak_rss_kb, "jobs": records}, fh)


if __name__ == "__main__":
    name, seed_arg, seconds_arg, trace_arg, result = sys.argv[1:6]
    main(name, int(seed_arg), float(seconds_arg), trace_arg == "1", result)
