"""Correctness checks that hold for any seed.

Each job's outcome is split into results (one output row, one jump
estimate, one identity report) and every result gets a status:

``ok``      the result was delivered and passed its check;
``fail``    it raised, its exit code was non-zero, or it failed its check;
``xfail``   a known-defect input failing exactly as recorded at the seed
            commit (see ``workloads.KNOWN_DEFECTS``);
``xpass``   a known-defect input that now delivers a checked, correct value.

The checks recompute references through the public library API, so they
run outside the timed region.
"""

from __future__ import annotations

import csv
import io
import json
import math

from bosegas.condensate import charge_density_rel, excited_density_nr
from bosegas.specfun import AccuracyBudget
from bosegas.thermo import (FieldKind, Geometry, ModelParams, ThermalPoint,
                            high_t_expansion, mutual_info_charged,
                            mutual_info_neutral)

from workloads import KNOWN_DEFECTS, Job

# Tolerances, relative.
TOL_RHO_REL = 1e-8        # gas-phase mu reproduces rho (solve stops at 1e-10)
TOL_RHO_NR = 1e-8         # plus the job's rtol: the NR solve evaluates
                          # polylog at the requested tolerance
TOL_TC_REL = 1e-9         # T_C solve stops at residual 1e-11 rho
TOL_TC_NR = 1e-10
TOL_CONDENSED = 1e-12     # rho_e + rho_0 = rho
TOL_JUMP_NR = 1e-9        # measured <= 2e-12 at the seed commit
TOL_JUMP_UR = 1e-2        # measured <= 4e-3 for 1 <= rho <= 1e4
TOL_DOUBLING = 1e-10      # charged(mu = 0) = 2 x neutral
TOL_SYMMETRY = 1e-12      # mu -> -mu
TOL_HIGH_T = 2e-3         # D = 3, T >= HIGH_T_MIN m
HIGH_T_MIN = 50.0
TOL_MATSUBARA = 1e-7      # frequency-sum route vs direct boundary part
TOL_SUM = 1e-12           # additive identities of the printed report

_GEO = Geometry()
_UR_COEFF = math.pi * math.sqrt(3.0) / 9.0


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _table(stdout: str) -> list[dict[str, str]]:
    lines = [ln for ln in stdout.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _num(row: dict, key: str) -> float:
    return float(row[key])


# ----------------------------------------------------------------------
# Per-result value checks: return None when the value is right, else why.
# ----------------------------------------------------------------------

def _check_tc(tc: float, p: dict) -> str | None:
    rho, m = p["rho"], p["mass"]
    if not (math.isfinite(tc) and tc > 0.0):
        return f"T_C = {tc!r}"
    if p["regime"] == "nr":
        got = excited_density_nr(tc, 0.0, m)
        tol = TOL_TC_NR
    else:
        got = charge_density_rel(ThermalPoint(tc, m), m)
        tol = TOL_TC_REL
    err = _rel(got, rho)
    return None if err <= tol else f"capacity(T_C) off rho by {err:.2e}"


def _check_charge_row(row: dict, p: dict) -> str | None:
    rho, m = p["rho"], p["mass"]
    t, mu = _num(row, "T"), _num(row, "mu")
    rho_e, rho_0 = _num(row, "rho_e"), _num(row, "rho_0")
    values = [_num(row, k) for k in ("I_m", "I_m_thermal_part", "S_g",
                                     "S_thermal")]
    if not all(math.isfinite(v) for v in (t, mu, rho_e, rho_0, *values)):
        return "non-finite value in row"
    if abs(mu) > m:
        return f"|mu| = {abs(mu)!r} exceeds m"
    if rho_0 > 0.0:                                   # condensed
        if abs(mu) != m:
            return f"condensed row with |mu| = {abs(mu)!r} != m"
        err = _rel(rho_e + rho_0, rho)
        return None if err <= TOL_CONDENSED else \
            f"rho_e + rho_0 off rho by {err:.2e}"
    if p["regime"] == "nr":
        def density(a: float) -> float:
            return excited_density_nr(t, a - m, m)
        tol = TOL_RHO_NR + p["rtol"]
    else:
        def density(a: float) -> float:
            return charge_density_rel(ThermalPoint(t, a), m)
        tol = TOL_RHO_REL
    a = abs(mu)
    err = _rel(density(a), rho)
    if err <= tol:
        return None
    # At T -> T_C+ the density moves like sqrt(m - |mu|), so one ulp of the
    # printed mu can shift it by more than tol: accept rho anywhere between
    # the densities at mu's neighbouring doubles.
    near = [density(math.nextafter(a, 0.0)), density(math.nextafter(a, m))]
    if min(near) * (1.0 - tol) <= rho <= max(near) * (1.0 + tol):
        return None
    return f"gas row density off rho by {err:.2e}"


def _check_jump(payload: dict, p: dict) -> str | None:
    rho, m, v2 = p["rho"], p["mass"], p["v2"]
    tc, jump = payload["critical_temperature"], payload["jump"]
    if not (math.isfinite(tc) and math.isfinite(jump)):
        return "non-finite jump"
    if p["regime"] == "nr":
        expected = 0.25 * math.pi * v2 * rho / (m * tc)
        err = _rel(jump, expected)
        return None if err <= TOL_JUMP_NR else \
            f"NR jump off (pi/4) V2 rho/(m T_C) by {err:.2e}"
    expected = _UR_COEFF * v2 * math.sqrt(rho / m)
    err = _rel(abs(jump), expected)
    return None if err <= TOL_JUMP_UR else \
        f"|jump| off the UR closed form by {err:.3g}"


def _model(p: dict, kind: str) -> ModelParams:
    m = p["mass"]
    return ModelParams(m, p["dim"], 1e4 * m, FieldKind(kind))


def _report(p: dict, kind: str, t: float, mu: float):
    acc = AccuracyBudget(relative_tolerance=p["rtol"])
    model = _model(p, kind)
    point = ThermalPoint(t, mu)
    if kind == "neutral":
        return mutual_info_neutral(model, _GEO, point, acc)
    return mutual_info_charged(model, _GEO, point, acc)


def _check_mu_row(row: dict, p: dict, command: str) -> str | None:
    t, mu = _num(row, "T"), _num(row, "mu")
    if command == "entropy":
        zero_t = _num(row, "zero_t_part")
        boundary = _num(row, "boundary_thermal_part")
        extensive = _num(row, "extensive_thermal_part")
    else:
        boundary = _num(row, "I_m_thermal_part")
        extensive = -0.5 * _num(row, "S_thermal")
        zero_t = _num(row, "I_m") - boundary
    s_g, i_m = _num(row, "S_g"), _num(row, "I_m")
    if not all(math.isfinite(v) for v in (zero_t, boundary, extensive,
                                          s_g, i_m)):
        return "non-finite value in row"
    if boundary < 0.0 or extensive > 0.0:
        return "boundary part < 0 or extensive part > 0"
    scale = abs(zero_t) + abs(boundary) + abs(extensive)
    if abs(s_g - (zero_t + boundary + extensive)) > TOL_SUM * scale:
        return "S_g != vacuum + boundary + extensive"

    kind = p["kind"]
    if mu == 0.0:
        # mu = 0 doubling: the charged field is exactly two neutral ones.
        other = _report(p, "charged" if kind == "neutral" else "neutral",
                        t, 0.0)
        ratio = 2.0 if kind == "neutral" else 0.5
        for got, ref in ((boundary, other.boundary_thermal_part),
                         (extensive, other.extensive_thermal_part)):
            if _rel(ratio * got, ref) > TOL_DOUBLING:
                return f"mu = 0 doubling off by {_rel(ratio * got, ref):.2e}"
    else:
        mirror = _report(p, kind, t, -mu)
        for got, ref in ((boundary, mirror.boundary_thermal_part),
                         (extensive, mirror.extensive_thermal_part)):
            if _rel(got, ref) > TOL_SYMMETRY:
                return f"mu -> -mu symmetry off by {_rel(got, ref):.2e}"
    m = p["mass"]
    if p["dim"] == 3 and t >= HIGH_T_MIN * m:
        j_quad = boundary * 3.0 / math.pi
        if kind == "neutral":
            j_quad *= 2.0
        err = _rel(high_t_expansion(ThermalPoint(t, mu), m), j_quad)
        if err > TOL_HIGH_T:
            return f"high-T expansion off by {err:.2e}"
    return None


# ----------------------------------------------------------------------
# Outcome classification
# ----------------------------------------------------------------------

def _cli_results(job: Job, outcome: dict) -> list[tuple[str, str | None]]:
    """(value-check verdict, row error) per result of a CLI job."""
    rc, out = outcome["rc"], outcome["stdout"]
    command = job.argv[0]
    if command == "discontinuity":
        if rc != 0:
            return [("error", None)]
        return [(_check_jump(json.loads(out), job.params) or "ok", None)]
    rows = _table(out) if out.strip() else []
    if not rows:
        return [("error", None)]
    results = []
    for row in rows:
        err = row.get("error", "")
        if err:
            results.append(("error", err))
            continue
        if command == "tc":
            why = _check_tc(_num(row, "T_C"), job.params)
        elif "rho" in job.params:                     # fixed-charge sweep
            why = _check_charge_row(row, job.params)
        else:
            why = _check_mu_row(row, job.params, command)
        results.append((why or "ok", None))
    return results


def _library_results(job: Job, outcome: dict) -> list[tuple[str, None]]:
    if "exception" in outcome:
        return [("error", None)]
    value = outcome["value"]
    if job.call[0] == "matsubara_pair":
        alt, direct = value
        err = _rel(alt, direct)
        return [("ok" if err <= TOL_MATSUBARA else
                 f"Matsubara route off direct by {err:.2e}", None)]
    return [("ok" if value.passed else
             f"{value.identity_name}: relative error "
             f"{value.relative_error:.2e} > {value.tolerance:.0e}", None)]


def _matches_baseline(job: Job, outcome: dict, verdict: str,
                      row_error: str | None) -> bool:
    expect = KNOWN_DEFECTS[job.defect]["expect"]
    if outcome.get("rc") != expect["rc"]:
        return False
    if "stderr" in expect:
        return expect["stderr"] in outcome["stderr"]
    if "row_error" in expect:
        return row_error is not None and expect["row_error"] in row_error
    return expect["check_fails"] and verdict not in ("ok", "error")


def classify(job: Job, outcome: dict) -> list[tuple[str, str]]:
    """(status, detail) for every result of one job outcome."""
    if job.argv is not None:
        if "exception" in outcome:
            pairs = [("error", None)]
        else:
            pairs = _cli_results(job, outcome)
    else:
        pairs = _library_results(job, outcome)
    statuses = []
    for verdict, row_error in pairs:
        if verdict == "ok":
            statuses.append(("xpass" if job.defect else "ok", ""))
            continue
        detail = (verdict if verdict != "error" else
                  row_error or outcome.get("exception")
                  or f"exit {outcome.get('rc')}: "
                     f"{outcome.get('stderr', '').strip()[:200]}")
        if job.defect and _matches_baseline(job, outcome, verdict, row_error):
            statuses.append(("xfail", detail))
        else:
            statuses.append(("fail", detail))
    return statuses
