"""Self-test of the benchmark: exact work counters and the tracer.

Run from the repository root::

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from worker import execute, run_pass, traced_pass  # noqa: E402
from workloads import WORKLOADS, Job, make_jobs  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore:sign finding")

SEED = 11
COUNTERS = ("quadrature.integrals", "quadrature.nodes",
            "condensate.stencil_levels", "specfun.bessel_i_scaled.calls",
            "specfun.bessel_j.calls", "specfun.polylog.calls",
            "specfun.gamma_upper.calls")

# Baseline cases of the roadmap: (argv, integrals, integrand nodes), the
# nodes being 15 per Gauss-Kronrod panel.
CALIBRATION = {
    "mi_rel40": (("mutual-info", "--charge-density", "1e4", "--regime",
                  "rel", "--tmin", "100", "--tmax", "300", "--points", "40"),
                 669, 997_155),
    "entropy100": (("entropy", "--field-kind", "charged", "--mu", "0.9",
                    "--tmin", "0.1", "--tmax", "10", "--points", "100"),
                   200, 179_070),
    "disc_rel": (("discontinuity", "--charge-density", "1e4", "--regime",
                  "rel"), 195, 355_665),
}


def _small(workload: str) -> list[Job]:
    """A short slice of a job list that still reaches every layer it uses."""
    jobs = make_jobs(workload, SEED)
    if workload == "fixed_charge":
        rel = next(j for j in jobs if j.name.endswith("-tc")
                   and j.params["regime"] == "rel")
        nr = next(j for j in jobs if j.name.endswith("-tc")
                  and j.params["regime"] == "nr")
        group = rel.name[:-len("-tc")], nr.name[:-len("-tc")]
        return [j for j in jobs if j.name.rsplit("-", 1)[0] in group]
    if workload == "fixed_mu":
        return jobs[:20]
    laplace = [j for j in jobs if j.call[0] == "check_f_n_alpha"]
    cheapest = min(laplace, key=lambda j: (j.call[1][0], -j.call[1][1]))
    return [j for j in jobs if j.call[0] != "check_f_n_alpha"] + [cheapest]


def _counters(jobs: list[Job]) -> dict[str, float]:
    tracer, wall, _latencies, _outcomes = traced_pass(jobs)
    metrics = tracer.metrics(wall)
    return {name: metrics[name] for name in COUNTERS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counters_repeat_exactly(workload):
    jobs = _small(workload)
    first = _counters(jobs)
    assert first["quadrature.integrals"] > 0
    assert _counters(jobs) == first


@pytest.mark.parametrize("case", sorted(CALIBRATION))
def test_counters_reproduce_roadmap_baseline(case):
    argv, integrals, nodes = CALIBRATION[case]
    job = Job(case, argv)
    tracer, _wall, _latencies, outcomes = traced_pass([job])
    assert outcomes[0]["rc"] == 0
    assert (tracer.integrals, tracer.nodes) == (integrals, nodes)
    # Tracing must not change a byte of the CLI output.
    plain = execute(job)
    assert (plain["rc"], plain["stdout"]) == (0, outcomes[0]["stdout"])


def test_self_times_account_for_traced_wall():
    jobs = _small("fixed_charge")
    _wall, _latencies, plain = run_pass(jobs)
    tracer, wall, _latencies, traced = traced_pass(jobs)
    assert [o["stdout"] for o in traced] == [o["stdout"] for o in plain]
    metrics = tracer.metrics(wall)
    layers = [metrics[f"{name}.self_s"] for name in
              ("cli", "condensate", "thermo", "quadrature", "specfun")]
    assert min(layers) > 0.0
    assert metrics["oracles.self_s"] == 0.0
    assert 0.0 <= metrics["harness.self_s"] < 0.05 * wall
    ids = {span[0] for span in tracer.spans}
    assert all(span[1] == 0 or span[1] in ids for span in tracer.spans)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fixed_mu",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
