"""bosegas benchmark: one command, one workload, one JSON line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload fixed_charge --seed 1 --seconds 20 --trace 0

Workloads: ``fixed_charge``, ``fixed_mu``, ``identities`` (see NOTES.md).
The workload runs in a fresh single-threaded interpreter (``worker.py``)
against the checkout's own ``src``; nothing is installed.  ``setup_s`` is
measured here, from separate fresh interpreters that only import the
package the way the ``bosegas`` command does.

Every metric is printed by name with its unit, then the last line of
standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  A missing ``src/bosegas`` is an error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "BLIS_NUM_THREADS")



def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in THREAD_VARS:
        env[name] = "1"
    return env


# The ``bosegas`` command's entry point lives in ``bosegas.cli``; importing
# it pulls in numpy and the module constants (zeta(3/2), ...), which
# ``import bosegas`` alone does not.
_IMPORT_PROBE = ("import time, bosegas.cli; "
                 "print(repr(time.perf_counter()), bosegas.__file__)")


def measure_setup(env: dict[str, str]) -> list[float]:
    """Fresh interpreter start until ``import bosegas.cli`` returns, in s.

    perf_counter is the system-wide monotonic clock on Linux, so the
    child's reading after the import is comparable with ours at spawn.
    The first, unrecorded start warms the file cache and bytecode.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        stamp, path = proc.stdout.split(maxsplit=1)
        if Path(path.strip()).resolve().parent.parent != ROOT / "src":
            raise RuntimeError(f"imported bosegas from {path.strip()}")
        if i:
            times.append(float(stamp) - t0)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "bosegas" / "__init__.py").is_file():
        print(f"error: no bosegas sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    env = _child_env()
    setup = [] if args.trace else measure_setup(env)

    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 3
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    env_info = res["env"]
    print(f"# bosegas benchmark  workload={res['workload']} "
          f"seed={res['seed']} seconds={args.seconds:g} trace={args.trace}")
    print(f"# python={env_info['python']} numpy={env_info['numpy']} "
          f"nproc={env_info['nproc']} cpu={env_info['cpu']!r} "
          f"loadavg={env_info['loadavg']}")
    print(f"# closed loop, 1 client: {res['jobs']} jobs / "
          f"{res['results_per_pass']} results per pass, "
          f"{res['passes']} passes")
    counts = res["counts"]
    print(f"# results per pass: ok={counts['ok']} fail={counts['fail']} "
          f"xfail={counts['xfail']} (known defects, as recorded) "
          f"xpass={counts['xpass']} (known defects now correct); "
          f"failed_frac = {res['failed_frac']:.6g} 1")
    for item in res["known_defects"]:
        statuses = ",".join(sorted({s for s, _ in item["results"]}))
        print(f"# known defect {item['defect']} [{item['job']}]: "
              f"{statuses}: {item['results'][0][1][:100]}  "
              f"(recorded: {item['baseline']})")
    for item in res["failures"]:
        bad = [d for s, d in item["results"] if s == "fail"]
        print(f"# FAILED {item['job']}: {len(bad)} result(s): {bad[0][:160]}")

    # Metric names and units come from BENCHMARK.json.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        values = res["layer_metrics"]
        print(f"# spans: {res['spans_file']}")
    else:
        values = dict(res["metrics"], setup_s=statistics.median(setup))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in listed}
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "job_ms_tail":
            extra = (f"  (p{res['tail_pct']:.1f} over {res['jobs']} jobs, "
                     f"10 beyond)")
        elif name == "wall_s":
            walls = ", ".join(f"{w:.3f}" for w in res["pass_walls"])
            extra = f"  (median of {res['passes']} passes: {walls})"
        elif name == "setup_s":
            extra = f"  (median of {len(setup)} fresh interpreters)"
        print(f"{name} = {value:.6g} {unit}{extra}")

    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
