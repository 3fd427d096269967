"""Seeded job lists for the three bosegas benchmark workloads.

A job is one call a user makes: an in-process ``bosegas`` CLI invocation
(``argv``), or one public identity-check call (``call``).  The program only
ever sees the generated argv or arguments; everything else in a ``Job``
(``params``, ``defect``) is for the benchmark's correctness checks.

Every draw is stratified: a quantity that sets the cost of a job (density,
sweep length, tolerance, temperature) takes one uniform draw inside each of
n equal slices of its range, so the total work of a job list barely moves
from seed to seed while the individual inputs do.

Known-failing inputs of the seed commit are part of the lists on purpose,
at a fixed count per list (see ``KNOWN_DEFECTS`` and NOTES.md); they are
never trimmed away.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("fixed_charge", "fixed_mu", "identities")

ZETA_3_2 = 2.612375348685488      # zeta(3/2), for the NR T_C estimate


@dataclass(frozen=True)
class Job:
    """One user call plus what the checks need to judge its results."""

    name: str
    argv: tuple[str, ...] | None = None  # CLI job
    call: tuple | None = None           # (function name, args) library job
    params: dict = field(default_factory=dict)
    defect: str | None = None           # KNOWN_DEFECTS key, if any


# Known-failing inputs at the seed commit, with their recorded baseline
# status.  ``expect`` is what the checks accept as "still failing the same
# way"; any other failure of these jobs counts as a real failure.
KNOWN_DEFECTS = {
    "rel_tc_rho_1e12": {
        "baseline": "exit 3: quadrature needed more than 4000 subdivisions",
        "expect": {"rc": 3, "stderr": "subdivisions"},
    },
    "rel_tc_rho_1e-12": {
        "baseline": "exit 2: root is not bracketed (valid input reported "
                    "as a usage error)",
        "expect": {"rc": 2, "stderr": "root is not bracketed"},
    },
    "rel_solve_T_1e4_rho_1": {
        "baseline": "exit 3: row error, quadrature needed more than 4000 "
                    "subdivisions",
        "expect": {"rc": 3, "row_error": "subdivisions"},
    },
    "ur_jump_rho_ge_1e5": {
        "baseline": "exit 0 but |jump/analytic| = 1.086, 1.079, 1.909; the "
                    "right stencil takes 10, 7, 7 levels instead of 5",
        "expect": {"rc": 0, "check_fails": True},
    },
    "fixed_mu_high_T": {
        "baseline": "exit 3: row error, quadrature needed more than 4000 "
                    "subdivisions",
        "expect": {"rc": 3, "row_error": "subdivisions"},
    },
    "fixed_mu_entropy_weight": {
        "baseline": "exit 3: row error, integrand returned a non-finite "
                    "value (entropy weight overflows to inf)",
        "expect": {"rc": 3, "row_error": "non-finite"},
    },
    "neutral_D1_m_1e-10": {
        "baseline": "exit 3: row error, quadrature needed more than 4000 "
                    "subdivisions",
        "expect": {"rc": 3, "row_error": "subdivisions"},
    },
}


def _strata(rng: random.Random, n: int, lo: float, hi: float,
            log: bool = False) -> list[float]:
    """One uniform draw in each of n equal slices of [lo, hi], shuffled."""
    us = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(us)
    if log:
        a, b = math.log(lo), math.log(hi)
        return [math.exp(a + u * (b - a)) for u in us]
    return [lo + u * (hi - lo) for u in us]


def _strata_int(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    return [min(hi, int(v)) for v in _strata(rng, n, lo, hi + 1)]


def _balanced(rng: random.Random, n: int, choices) -> list:
    """n items cycling through ``choices``, shuffled: equal shares."""
    out = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(out)
    return out


def _f(x: float) -> str:
    return repr(float(x))


# ----------------------------------------------------------------------
# fixed_charge: the condensation study through the CLI
# ----------------------------------------------------------------------

# Relativistic densities stay at rho <= 1e4, where the stencil jump agrees
# with the closed form to 4e-3; rho >= 1e5 is a known defect, kept below.
_REL_DENSITIES = 8
_NR_DENSITIES = 5
_REL_RHO = (1.0, 1e4)
_NR_RHO = (1e-4, 1.0)
_MAX_POINTS = 40
_HALF_WIDTH = (0.1, 0.45)    # (tmax - tmin) / (2 T_C)


def _tc_estimate(rho: float, regime: str) -> float:
    if regime == "nr":
        return 2.0 * math.pi * (rho / ZETA_3_2) ** (2.0 / 3.0)
    return math.sqrt(3.0 * rho)


def _fixed_charge(rng: random.Random) -> list[Job]:
    densities = ([(r, "rel") for r in _strata(rng, _REL_DENSITIES, *_REL_RHO,
                                              log=True)]
                 + [(r, "nr") for r in _strata(rng, _NR_DENSITIES, *_NR_RHO,
                                               log=True)])
    points = (_strata_int(rng, _REL_DENSITIES, 1, _MAX_POINTS)
              + _strata_int(rng, _NR_DENSITIES, 1, _MAX_POINTS))
    spacings = (_balanced(rng, _REL_DENSITIES, ("linear", "tc-refined"))
                + _balanced(rng, _NR_DENSITIES, ("linear", "tc-refined")))
    rtols = _strata(rng, len(densities), 1e-12, 1e-6, log=True)

    groups: list[list[Job]] = []
    for i, ((rho, regime), n, spacing, rtol) in enumerate(
            zip(densities, points, spacings, rtols)):
        # A gas-phase row costs ~13 root-solve integrals, a condensed one
        # ~3, so every range is centred on T_C: half its rows are gas.
        tc = _tc_estimate(rho, regime)
        half_width = rng.uniform(*_HALF_WIDTH)
        lo, hi = tc * (1.0 - half_width), tc * (1.0 + half_width)
        base = ("--charge-density", _f(rho), "--regime", regime,
                "--rtol", _f(rtol))
        params = {"rho": rho, "regime": regime, "mass": 1.0, "v2": 1.0,
                  "rtol": rtol}
        groups.append([
            Job(f"fc{i}-tc", ("tc",) + base, params=params),
            Job(f"fc{i}-sweep",
                ("mutual-info",) + base + (
                    "--tmin", _f(lo), "--tmax", _f(hi), "--points", str(n),
                    "--spacing", spacing),
                params=params),
            Job(f"fc{i}-jump", ("discontinuity",) + base,
                params=params),
        ])
    rng.shuffle(groups)
    jobs = [job for group in groups for job in group]

    rel = {"regime": "rel", "mass": 1.0, "v2": 1.0, "rtol": 1e-8}
    known = [
        Job("kd-tc-1e12",
            ("tc", "--charge-density", "1e12", "--regime", "rel"),
            params={**rel, "rho": 1e12}, defect="rel_tc_rho_1e12"),
        Job("kd-tc-1e-12",
            ("tc", "--charge-density", "1e-12", "--regime", "rel"),
            params={**rel, "rho": 1e-12}, defect="rel_tc_rho_1e-12"),
        Job("kd-solve-T1e4",
            ("mutual-info", "--charge-density", "1", "--regime", "rel",
             "--tmin", "1e4", "--points", "1"),
            params={**rel, "rho": 1.0}, defect="rel_solve_T_1e4_rho_1"),
    ] + [
        Job(f"kd-jump-{rho:g}",
            ("discontinuity", "--charge-density", _f(rho), "--regime", "rel"),
            params={**rel, "rho": rho}, defect="ur_jump_rho_ge_1e5")
        for rho in (1e5, 1e6, 1e8)
    ]
    for job in known:
        jobs.insert(rng.randrange(len(jobs) + 1), job)
    return jobs


# ----------------------------------------------------------------------
# fixed_mu: entropy / mutual-info reports at fixed chemical potential
# ----------------------------------------------------------------------

_MU_JOBS = 260
_MU_POINTS = (3, 9)          # rows per job: narrow, for a steady median job
_MU_T = (0.05, 1e3)          # T/m; the region D in {1,2} fails far above it
# Near-critical D = 3 scans (mu -> m, tight rtol, three decades of T): the
# slowest regular jobs, alike enough that the 10-beyond tail falls on one.
_MU_SCANS = 16
_MU_SCAN_POINTS = 20

# Verified failing inputs at the seed commit, per known defect:
# (dimension, field kind, mass, T, mu, rtol).
_MU_KNOWN = {
    "fixed_mu_high_T": [
        (1, "charged", 1.0, 1e8, 1 - 1e-9, 1e-10),
        (1, "charged", 1.0, 1e10, 1 - 1e-6, 1e-10),
        (2, "charged", 1.0, 1e8, 1 - 1e-12, 1e-8),
        (2, "charged", 1.0, 1e10, 1 - 1e-9, 1e-6),
        (2, "charged", 1.0, 1e8, 1 - 1e-9, 1e-12),
    ],
    "fixed_mu_entropy_weight": [
        (1, "charged", 1.0, 1e8, 1 - 1e-12, 1e-8),
        (1, "charged", 1.0, 1e8, 1 - 1e-12, 1e-6),
    ],
    "neutral_D1_m_1e-10": [
        (1, "neutral", 1e-10, 100.0, 0.0, 1e-8),
        (1, "neutral", 1e-10, 1.0, 0.0, 1e-12),
    ],
}
# Rows per list from the high-T class (the other classes give one each).
_MU_KNOWN_HIGH_T = 3


def _mu_value(rng: random.Random, category: str, dim: int) -> float:
    if category == "zero":
        return 0.0
    if category == "interior":
        mu = rng.uniform(0.0, 0.99)
    elif category == "critical" and dim == 3:
        mu = 1.0                       # |mu| = m is integrable in D = 3
    else:                              # mu -> m from below
        mu = 1.0 - 10.0 ** -rng.uniform(2.0, 8.0)
    return mu if rng.random() < 0.5 else -mu


def _fixed_mu(rng: random.Random) -> list[Job]:
    n = _MU_JOBS
    commands = _balanced(rng, n, ("entropy", "mutual-info"))
    dims = _balanced(rng, n, (1, 2, 3))
    kinds = _balanced(rng, n, ("neutral", "charged", "charged"))
    categories = _balanced(rng, n, ("zero", "interior", "near", "critical"))
    points = _strata_int(rng, n, *_MU_POINTS)
    tmins = _strata(rng, n, _MU_T[0], _MU_T[1] / 10.0, log=True)
    rtols = _strata(rng, n, 1e-12, 1e-6, log=True)

    jobs = []
    for i in range(n):
        dim, kind = dims[i], kinds[i]
        mu = 0.0 if kind == "neutral" else _mu_value(rng, categories[i], dim)
        tmin = tmins[i]
        tmax = min(_MU_T[1], tmin * 10.0 ** rng.uniform(0.3, 1.0))
        argv = (commands[i], "--dim", str(dim), "--field-kind", kind,
                "--mu", _f(mu), "--tmin", _f(tmin), "--tmax", _f(tmax),
                "--points", str(points[i]), "--spacing", "log",
                "--rtol", _f(rtols[i]))
        jobs.append(Job(f"fm{i}", argv, params={
            "dim": dim, "kind": kind, "mass": 1.0, "mu": mu,
            "rtol": rtols[i]}))

    for k, (command, tmin, rtol) in enumerate(zip(
            _balanced(rng, _MU_SCANS, ("entropy", "mutual-info")),
            _strata(rng, _MU_SCANS, 0.05, 0.2, log=True),
            _strata(rng, _MU_SCANS, 1e-12, 1e-11, log=True))):
        mu = _mu_value(rng, "near", 3)
        argv = (command, "--dim", "3", "--field-kind", "charged",
                "--mu", _f(mu), "--tmin", _f(tmin), "--tmax", _f(tmin * 1e3),
                "--points", str(_MU_SCAN_POINTS), "--spacing", "log",
                "--rtol", _f(rtol))
        jobs.append(Job(f"fm-scan{k}", argv, params={
            "dim": 3, "kind": "charged", "mass": 1.0, "mu": mu,
            "rtol": rtol}))

    known = ([("fixed_mu_high_T", case) for case in rng.sample(
                 _MU_KNOWN["fixed_mu_high_T"], _MU_KNOWN_HIGH_T)]
             + [(defect, rng.choice(_MU_KNOWN[defect])) for defect in
                ("fixed_mu_entropy_weight", "neutral_D1_m_1e-10")])
    for k, (defect, (dim, kind, mass, t, mu, rtol)) in enumerate(known):
        argv = (rng.choice(("entropy", "mutual-info")), "--dim", str(dim),
                "--field-kind", kind, "--mass", _f(mass), "--mu", _f(mu),
                "--tmin", _f(t), "--points", "1", "--rtol", _f(rtol))
        job = Job(f"kd-mu{k}", argv, defect=defect, params={
            "dim": dim, "kind": kind, "mass": mass, "mu": mu, "rtol": rtol})
        jobs.insert(rng.randrange(len(jobs) + 1), job)
    return jobs


# ----------------------------------------------------------------------
# identities: the public oracle checks plus the Matsubara cross-check
# ----------------------------------------------------------------------

def _identities(rng: random.Random) -> list[Job]:
    calls: list[tuple] = []
    # Laplace resummation, n in {1..4} twice each.  Its cost is about
    # proportional to the orders summed, n / acosh(alpha); drawing
    # g = 1 / acosh(alpha) antithetically over alpha in [1.5, 3] keeps the
    # summed cost of each pair level.
    g_lo, g_hi = 1.0 / math.acosh(3.0), 1.0 / math.acosh(1.5)
    for n in (1.0, 2.0, 3.0, 4.0):
        u = rng.random()
        for g in (g_lo + (g_hi - g_lo) * u, g_hi - (g_hi - g_lo) * u):
            calls.append(("check_f_n_alpha", (n, math.cosh(1.0 / g))))
    # Bessel sum rules: full order n = 1 only (n != 1 fails by construction).
    for z, a_r in zip(_strata(rng, 12, 1.0, 50.0),
                      _strata(rng, 12, 1.0, 22.0)):
        calls.append(("check_bessel_identities", (z, 1.0, a_r)))
    # The ~0.15 ms sum_bilateral checks (48) sit between as many ~0.01 ms
    # Poisson checks below them as slow jobs (44) above, so the median job
    # is one of them.
    for beta, omega, frac in zip(_strata(rng, 24, 0.5, 2.5),
                                 _strata(rng, 24, 0.7, 2.0),
                                 _strata(rng, 24, 0.0, 0.9)):
        calls.append(("check_matsubara_sum", (beta, omega, frac * omega)))
    for beta, omega in zip(_strata(rng, 24, 0.5, 2.0),
                           _strata(rng, 24, 0.7, 40.0, log=True)):
        calls.append(("check_log_sum_derivative", (beta, omega)))
    for beta, t, mu in zip(_strata(rng, 44, 1.0, 2.0),
                           _strata(rng, 44, 0.01, 1.0, log=True),
                           _strata(rng, 44, -0.7, 0.5)):
        calls.append(("check_poisson_resummation", (beta, t, mu)))
    # Matsubara frequency-sum route vs the direct boundary part: every
    # (D, field kind) at four temperatures in [0.8, 3], where the cost is
    # level; the eight D = 3 pairs (~130 ms) hold the 10-beyond tail.
    for dim in (1, 2, 3):
        for kind in ("neutral", "charged"):
            mus = (_strata(rng, 4, 0.0, 0.95) if kind == "charged"
                   else [0.0] * 4)
            for t, mu in zip(_strata(rng, 4, 0.8, 3.0, log=True), mus):
                calls.append(("matsubara_pair", (dim, kind, t, mu)))
    rng.shuffle(calls)
    return [Job(f"id{i}-{call[0]}", call=call) for i, call in enumerate(calls)]


_BUILDERS = {
    "fixed_charge": _fixed_charge,
    "fixed_mu": _fixed_mu,
    "identities": _identities,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of ``workload`` for ``seed``; same seed, same jobs."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(f"bosegas-{workload}-{seed}"))
