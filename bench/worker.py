"""Run one workload in this process and print its result as JSON.

Started by ``run.py`` in a fresh single-threaded interpreter with the
checkout's ``src`` on ``PYTHONPATH``.  The job list is run as a closed
loop -- each job starts when the previous one returns -- over and over
(passes) until ``--seconds`` have elapsed; every pass runs the same jobs,
so per-pass times are comparable and their median is reported.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
yield the per-layer metrics, the difference between the two the tracing
overhead.  Spans are written to ``.bench_out/`` at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

import bosegas
from bosegas import cli, oracles, thermo

from checks import classify
from layertrace import Tracer
from workloads import KNOWN_DEFECTS, WORKLOADS, Job, make_jobs

ROOT = Path(__file__).resolve().parent.parent
TAIL_BEYOND = 10          # jobs beyond the reported tail percentile


def _matsubara_pair(dim: int, kind: str, t: float, mu: float):
    """Boundary part by the frequency-sum route and by the direct route."""
    model = thermo.ModelParams(1.0, dim, 1e4, thermo.FieldKind(kind))
    geo = thermo.Geometry()
    point = thermo.ThermalPoint(t, mu)
    alt = thermo.boundary_thermal_matsubara(model, geo, point)
    report = (thermo.mutual_info_neutral if kind == "neutral"
              else thermo.mutual_info_charged)(model, geo, point)
    return alt, report.boundary_thermal_part


def execute(job: Job) -> dict:
    """Run one job; module attributes are looked up at call time so the
    tracer's wrappers, when installed, are the ones called."""
    try:
        if job.argv is not None:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(list(job.argv))
            return {"rc": rc, "stdout": out.getvalue(),
                    "stderr": err.getvalue()}
        name, args = job.call
        if name == "matsubara_pair":
            return {"value": _matsubara_pair(*args)}
        return {"value": getattr(oracles, name)(*args)}
    except Exception:           # the harness must survive any job failure
        return {"exception": traceback.format_exc(limit=3)}


def _fingerprint(outcome: dict) -> str:
    if "value" in outcome:
        return repr(outcome["value"])
    return repr((outcome.get("rc"), outcome.get("stdout"),
                 outcome.get("exception")))


def run_pass(jobs: list[Job], tracer: Tracer | None = None):
    """One closed-loop pass: (wall seconds, per-job seconds, outcomes)."""
    clock = time.perf_counter
    latencies, outcomes = [], []
    start = clock()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        t0 = clock()
        outcome = execute(job)
        latencies.append(clock() - t0)
        outcomes.append(outcome)
    return clock() - start, latencies, outcomes


def traced_pass(jobs: list[Job]):
    tracer = Tracer()
    tracer.install()
    try:
        wall, latencies, outcomes = run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    return tracer, wall, latencies, outcomes


def _environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 beyond."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 1 - TAIL_BEYOND, 0)
    return ordered[k], 100.0 * (k + 1) / n


def _score(jobs, first, passes):
    """Classify results of the first pass; later passes must repeat it."""
    statuses, per_job = [], []
    fingerprints = [_fingerprint(o) for o in first]
    for i, (job, outcome) in enumerate(zip(jobs, first)):
        try:
            results = classify(job, outcome)
        except Exception:       # a check that cannot run is a failed result
            results = [("fail", "check raised: "
                        + traceback.format_exc(limit=2))]
        for later in passes[1:]:
            if _fingerprint(later[2][i]) != fingerprints[i]:
                results = [("fail", "output changed between passes")
                           for _ in results]
                break
        statuses.extend(results)
        per_job.append({"job": job.name, "defect": job.defect,
                        "results": results})
        if job.defect:
            per_job[-1]["baseline"] = KNOWN_DEFECTS[job.defect]["baseline"]
    counts = {s: sum(1 for st, _ in statuses if st == s)
              for s in ("ok", "fail", "xfail", "xpass")}
    return counts, per_job


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if Path(bosegas.__file__).resolve().parent.parent != src:
        print(f"bosegas imported from {bosegas.__file__}, not {src}",
              file=sys.stderr)
        return 2

    jobs = make_jobs(args.workload, args.seed)
    deadline = time.perf_counter() + args.seconds
    untraced, traced = [], []
    while True:
        untraced.append(run_pass(jobs))
        if args.trace:
            traced.append(traced_pass(jobs))
        if time.perf_counter() >= deadline:
            break

    all_passes = untraced + [t[1:] for t in traced]
    counts, per_job = _score(jobs, untraced[0][2], all_passes)
    per_pass = sum(len(p["results"]) for p in per_job)
    latencies = [statistics.median(p[1][i] for p in untraced)
                 for i in range(len(jobs))]
    tail, tail_pct = _tail(latencies)
    wall = statistics.median(p[0] for p in untraced)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "env": _environment(),
        "passes": len(untraced),
        "pass_walls": [p[0] for p in untraced],
        "jobs": len(jobs),
        "results_per_pass": per_pass,
        "attempted": per_pass * len(all_passes),
        "failed": counts["fail"] * len(all_passes),
        "counts": counts,
        "failed_frac": (counts["fail"] + counts["xfail"]) / per_pass,
        "tail_pct": tail_pct,
        "metrics": {
            "wall_s": wall,
            "job_ms_p50": statistics.median(latencies) * 1e3,
            "job_ms_tail": tail * 1e3,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "known_defects": [p for p in per_job if p["defect"]],
        "failures": [p for p in per_job
                     if any(st == "fail" for st, _ in p["results"])],
    }
    if args.trace:
        layer = [t[0].metrics(t[1]) for t in traced]
        metrics = {k: statistics.median(m[k] for m in layer)
                   for k in layer[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(t[1] for t in traced) - wall)
        result["layer_metrics"] = metrics
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for n, (tracer, *_rest) in enumerate(traced):
                for record in tracer.span_records():
                    fh.write(json.dumps({"pass": n, **record}) + "\n")
        result["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
