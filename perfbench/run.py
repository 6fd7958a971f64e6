"""Benchmark of grtsurf's generate, verify and rotate commands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mesh|verify|rotate \
        [--seed 1] [--seconds 20] [--trace 0|1]

The run measures set-up time in fresh processes, runs the workload in its
own single-threaded process (perfbench/workload.py), checks every output
against computations of its own (perfbench/checks.py), prints a table and,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones of a traced run.  Every time is reference-normalised:
multiplied by R0 / (mean time of the reference kernel), so it reads as
seconds on the reference host (see README.md).  A job's time is scaled by
the kernel runs sampled during that job; set-up and per-layer times, which
have no samples of their own, by all kernel runs of the run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import checks
import jobs
import refkernel

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 150
# One thread per process: BLAS pools would otherwise compete for 2 cores.
# A fixed hash seed: string hashing shapes dict layouts, and a process
# with an unlucky seed ran the same jobs up to 10% slower.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# A fresh interpreter imports grtsurf and parses the workload's expressions;
# it prints the seconds that took.
_SETUP_CODE = """\
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import grtsurf
for source, variable in json.loads(sys.argv[2]):
    grtsurf.parse_expr(source, variable, real=(variable == "t"))
print(time.perf_counter() - start)
"""

# Per-layer metrics: (metric, traced name, field, normalise by host speed).
LAYER_METRICS = (
    ("expr.parse_s", "expr.parse_expr", "incl_s", True),
    ("expr.eval_jet2_calls", "expr.eval_jet2", "calls", False),
    ("expr.eval_jet2_self_s", "expr.eval_jet2", "self_s", True),
    ("geometry.point_frame_calls", "geometry.point_frame", "calls", False),
    ("geometry.point_frame_self_s", "geometry.point_frame", "self_s", True),
    ("surface.rotation_point_calls", "surface.rotation_point", "calls", False),
    ("verify.fd_fundamental_forms_calls", "verify.fd_fundamental_forms",
     "calls", False),
    ("cli.main_self_s", "cli.main", "self_s", True),
)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def measure_setup(workload: str, env: dict) -> list[float]:
    exprs = json.dumps(jobs.EXPRESSIONS[workload])
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, os.path.join(ROOT, "src"), exprs],
            capture_output=True, text=True, env=env, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            _fail(f"set-up process exited {proc.returncode}: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return times


def run_workload(args, env: dict, result_path: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workload.py"), args.workload,
         str(args.seed), str(args.seconds), str(args.trace), result_path],
        capture_output=True, text=True, env=env, timeout=WORKLOAD_TIMEOUT_S)
    if proc.returncode != 0:
        _fail(f"workload process exited {proc.returncode}: {proc.stderr.strip()}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(workload: str, seed: int, records: list[dict]) -> list[str]:
    failures = checks.check_repeats(records)
    out_dir = os.path.join("perfbench", "out", workload)
    for job in jobs.make(workload, seed, out_dir):
        try:
            with open(os.path.join(ROOT, job.out), encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            failures.append(f"output.missing: {exc}")
            continue
        stdouts = [r["stdout"] for r in records if r["case"] == job.case]
        failures += checks.check_job(workload, job, text, stdouts)
    return failures


def interquartile_mean(values):
    """Mean of the middle half: as robust as a median to a slow job, but it
    does not jump from one kind of job to the next as a median of five
    unlike kinds does."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut]) if ordered else float("nan")


def layer_metrics(records: list[dict], scale: float) -> dict:
    """Per-layer figures: mean per traced job, times normalised."""
    traced = [r for r in records if r["traced"] and r["rc"] == 0]
    plain = [r["raw_s"] for r in records if not r["traced"] and r["rc"] == 0]
    metrics = {"trace.overhead": (interquartile_mean([r["raw_s"] for r in traced])
                                  / interquartile_mean(plain), "ratio")}
    for metric, name, field, timed in LAYER_METRICS:
        mean = statistics.fmean(r["layers"][name][field] for r in traced)
        metrics[metric] = (mean * scale, "s") if timed else (mean, "count")
    metrics["cli.bytes_written"] = (statistics.fmean(r["bytes"] for r in records),
                                    "count")
    return metrics


def print_layers(records: list[dict], scale: float) -> None:
    traced = [r for r in records if r["traced"] and r["rc"] == 0]
    print(f"traced jobs: {len(traced)}; per job: calls, normalised inclusive "
          f"and self seconds, calls below verify.run_checks")
    for name in traced[0]["layers"] if traced else ():
        rows = [r["layers"][name] for r in traced]
        print(f"  {name:30s} {statistics.fmean(x['calls'] for x in rows):12.1f}"
              f" {statistics.fmean(x['incl_s'] for x in rows) * scale:10.4f}"
              f" {statistics.fmean(x['self_s'] for x in rows) * scale:10.4f}"
              f" {statistics.fmean(x['calls_in_run_checks'] for x in rows):12.1f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "grtsurf", "cli.py")):
        _fail(f"no grtsurf sources under {os.path.join(ROOT, 'src')}")

    env = dict(os.environ, **CHILD_ENV)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(os.path.join(out_dir, args.workload), exist_ok=True)
    setup_raw = measure_setup(args.workload, env)
    result = run_workload(args, env, os.path.join(out_dir, f"{args.workload}.json"))
    records = result["jobs"]

    failures = check_outputs(args.workload, args.seed, records)
    failed = [r for r in records if r["rc"] != 0]
    ok = [r for r in records if r["rc"] == 0 and not r["traced"]]
    kernel_s = [t for r in ok for t in r["kernel_s"]]
    kernel_mean = statistics.fmean(kernel_s)
    scale = refkernel.R0 / kernel_mean
    for r in ok:
        r["norm_s"] = r["raw_s"] * refkernel.R0 / statistics.fmean(r["kernel_s"] or [kernel_mean])
    raw_job = interquartile_mean([r["raw_s"] for r in ok])

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(records)} jobs, {len(failed)} failed, "
          f"{len(kernel_s)} kernel runs")
    print(f"  reference kernel mean {kernel_mean:.6f} s raw, scale {scale:.4f}")
    print(f"  job interquartile mean {raw_job:.4f} s raw; setup median "
          f"{statistics.median(setup_raw):.4f} s raw")
    for case in sorted({r["case"] for r in ok}):
        times = [r["norm_s"] for r in ok if r["case"] == case]
        print(f"  {case:14s} median {statistics.median(times):.4f} s "
              f"over {len(times)} jobs")
    for rec in failed:
        print(f"  failed job {rec['case']}: {rec['rc']}", file=sys.stderr)
    for message in failures:
        print(f"  check failed: {message}", file=sys.stderr)

    if args.trace:
        print_layers(records, scale)
        metrics = layer_metrics(records, scale)
        metrics["host.ref_s"] = (kernel_mean, "s")
        metrics["host.job_raw_s"] = (raw_job, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_raw) * scale, "s"),
            "job_s": (interquartile_mean([r["norm_s"] for r in ok]), "s"),
            "points_per_s": (sum(r["points"] for r in ok)
                             / sum(r["norm_s"] for r in ok), "1/s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
