r"""Numerical cross-checks of the summation and transform identities.

Every closed-form step the entropy formulas rest on is verified here along
two or more independent numerical routes, built only from the
special-function and quadrature layers (never from the thermodynamics code
they ultimately support):

* ``check_f_n_alpha``: the half-line Laplace transform of a modified
  Bessel function, :math:`\int_0^\infty e^{-\alpha q} I_\nu(q)\,dq =
  r^{\nu}/\sqrt{\alpha^2-1}` with :math:`r = \alpha - \sqrt{\alpha^2-1}`,
  resummed over orders :math:`\nu = |m|/n` into a coth closed form, plus
  the small-:math:`\epsilon` finite part :math:`(1/12)(1/n - n)` of
  :math:`F_n(1+\epsilon) - n/(2\epsilon)`.
* ``check_matsubara_sum``: the bilateral frequency sum
  :math:`\sum_k \mathrm{Re}\,[(\,(\omega_k + i\mu)^2 + \omega^2)^{-1}]`
  against its two-channel coth closed form.
* ``check_log_sum_derivative``: the derivative-level version of the
  log-determinant frequency sum, which never touches the divergent
  constant of the undifferentiated form.
* ``check_poisson_resummation``: the Gaussian winding-number lattice sum
  against its Poisson-dual frequency sum.
* ``check_bessel_identities``: the generating-function and unitarity sum
  rules for :math:`J_m`, the Weber integral
  :math:`\int_0^\infty \rho\, e^{-\rho^2/R^2} J_\nu(a\rho)^2 d\rho =
  (R^2/2)\, e^{-x} I_\nu(x)` at :math:`x = a^2R^2/2`, and the saturation
  of the order sum :math:`e^{-x}\sum_{m} I_{|m|/n}(x)`.
* ``check_derivative_jump``: the one exception to the rule above.  It
  checks the closed-form jump of :math:`\partial I_m/\partial T` at
  :math:`T_C` (``condensate.discontinuity_estimate``) against a Chebyshev
  interpolant of the boundary part itself on each side of :math:`T_C`,
  two routes that share only :math:`T_C` and the occupation kernel.

The saturation check is asserted against the value ``R^2/2`` independent
of ``n``.  That holds only for ``n = 1``: for ``n > 1`` each fractional
order family resums to the same total, so the measured sum saturates at
``n`` times ``R^2/2``.  Those rows therefore report ``passed = False``
with the measured plateau recorded in ``parameters`` -- the check states
an expectation the mathematics does not satisfy, and the report says so
rather than adjusting the target.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .condensate import (ChargeSpec, Regime, _chebyshev_slopes,
                         discontinuity_estimate)
from .quadrature import _integrate_radial_rows, sum_bilateral
from .specfun import (_LATTICE_TOL, _NU_MAX, AccuracyBudget,
                      _bessel_i_scaled_ladder, _bessel_j_ladder)
from .thermo import FieldKind, Geometry, ModelParams

__all__ = [
    "FAMILIES",
    "OracleReport",
    "check_bessel_identities",
    "check_derivative_jump",
    "check_f_n_alpha",
    "check_log_sum_derivative",
    "check_matsubara_sum",
    "check_poisson_resummation",
    "run_suite",
]

# Budget for the internal quadratures and bilateral sums: one order
# tighter than the tightest pass threshold used below.
_ORACLE_ACC = AccuracyBudget(relative_tolerance=1e-11)
_SUM_ACC = AccuracyBudget(relative_tolerance=1e-12)


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one identity check.

    ``relative_error`` is the worst sub-check discrepancy, rescaled so the
    single ``tolerance`` applies: ``passed`` is exactly
    ``relative_error <= tolerance``.  Raw sub-check errors live in
    ``parameters``.
    """

    identity_name: str
    lhs: float
    rhs: float
    relative_error: float
    passed: bool
    tolerance: float
    parameters: dict = field(default_factory=dict)


def _fold(errors: Sequence[tuple[float, float]], headline_tol: float) -> float:
    """Rescale sub-errors (err, tol) to a single headline-tolerance scale."""
    return headline_tol * max(err / tol for err, tol in errors)


def _report(name: str, lhs: float, rhs: float, headline_tol: float,
            errors: Sequence[tuple[float, float]],
            parameters: dict) -> OracleReport:
    rel = _fold(errors, headline_tol)
    return OracleReport(
        identity_name=name,
        lhs=lhs,
        rhs=rhs,
        relative_error=rel,
        passed=rel <= headline_tol,
        tolerance=headline_tol,
        parameters=parameters,
    )


# ----------------------------------------------------------------------
# Laplace-transform resummation and its finite part
# ----------------------------------------------------------------------

def _coth(x: float) -> float:
    return 1.0 / math.tanh(x)


def _f_n_closed(n: float, alpha: float) -> float:
    """Closed form of the order-summed Laplace transform."""
    return _coth(math.acosh(alpha) / (2.0 * n)) \
        / (2.0 * math.sqrt(alpha * alpha - 1.0))


def _order_table(nus: Sequence[float], ladder: Callable
                 ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``values(xs, rows)``: order ``nus[rows]`` at ``xs``, elementwise.

    Reads one table, local to this call, of every order at every argument
    seen so far; each round tabulates only the new arguments.  Orders are
    grouped by their fractional part in [0, 1), snapped to a grid of
    ``_LATTICE_TOL``: a group is one ladder of rungs ``f, f+1, ...`` up to
    its highest order, and one ``ladder(f, count, xs)`` call (``f`` and
    ``count`` per argument, rungs as a (max count, len(xs)) array)
    tabulates every group of a round.
    """
    rung = np.floor(np.add(nus, _LATTICE_TOL)).astype(int)
    frac = np.maximum(np.subtract(nus, rung), 0.0)
    _, first, group = np.unique(np.round(frac / _LATTICE_TOL),
                                return_index=True, return_inverse=True)
    counts = [rung[group == g].max() + 1 for g in range(len(first))]
    table: dict[float, np.ndarray] = {}     # argument -> every order

    def values(xs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        seen, where = np.unique(xs, return_inverse=True)
        new = [x for x in seen.tolist() if x not in table]
        if new:
            block = ladder(np.repeat(frac[first], len(new)),
                           np.repeat(counts, len(new)),
                           np.tile(new, len(first)))
            block = block.reshape(len(block), len(first), len(new))
            table.update(zip(new, block[rung, group].T))
        block = np.reshape([table[x] for x in seen.tolist()],
                           (len(seen), len(nus)))
        return block[where.reshape(xs.shape), rows]

    return values


def _orders_integrated(integrand: Callable, count: int, grid: tuple
                       ) -> list[float]:
    """Row ``m < count`` of one ``_integrate_radial_rows`` batch of the
    dimension-1 ``integrand(ps, rows)``, times pi: the plain half-line
    integral.  Raises the first failing row's exception."""
    rows = _integrate_radial_rows(1, integrand, [grid] * count, _ORACLE_ACC)
    for row in rows:
        if isinstance(row, Exception):
            raise row
    return [math.pi * row for row in rows]


def _laplace_bessel_quads(n: float, alpha: float, m_top: int) -> list[float]:
    """``int_0^inf e^{-alpha q} I_{m/n}(q) dq`` for every ``m <= m_top``:
    the rows of one batch on an ``_order_table`` of ``e^{-q} I_{m/n}(q)``.
    The tail map uses four decay lengths: at two, the rule's error
    estimate at nu = 6, alpha = 1.5 claims the 1e-11 budget while the
    transform is 1.2e-10 off."""
    decay = alpha - 1.0
    values = _order_table([m / n for m in range(m_top + 1)],
                          _bessel_i_scaled_ladder)

    def integrand(qs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return np.exp(-decay * qs) * values(qs, rows)

    return _orders_integrated(integrand, m_top + 1, ((1.0,), 4.0 / decay))


def check_f_n_alpha(n: float, alpha: float) -> OracleReport:
    """Order-summed Bessel Laplace transform vs its coth closed form.

    The left route integrates ``e^{-alpha q} I_{|m|/n}(q)`` order by order
    (the rows of one adaptive batch) up to the first order whose
    closed-form tail is negligible, and sums them; the right route is the
    coth expression.
    ``parameters`` records the orders actually summed (``orders_summed``)
    and the cap the loop may run to (``order_cap``).  Additionally
    the finite part of ``F_n(1+eps) - n/(2 eps)`` is extracted by
    Richardson extrapolation over eps in {1e-3, 1e-4, 1e-5} and compared
    with ``(1/12)(1/n - n)``.
    """
    if not 1.0 <= n <= 4.0:
        raise ValueError(f"order parameter n must lie in [1, 4], got {n!r}")
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha!r}")

    r = alpha - math.sqrt(alpha * alpha - 1.0)
    rhs = _f_n_closed(n, alpha)
    step = r ** (1.0 / n)                     # per-order decay of the terms
    m_max = max(4, int(math.ceil(n * 37.0 / -math.log(r))))
    inv_root = 1.0 / math.sqrt(alpha * alpha - 1.0)

    # Sum up to the first order whose closed-form tail is below 1e-15 of
    # the closed-form partial sum; orders above the Bessel cap raise.
    partial = 0.5 * inv_root
    for m_top in range(1, m_max + 1):
        closed_term = step ** m_top * inv_root
        partial += closed_term
        if closed_term / (1.0 - step) < 1e-15 * partial:
            break
    m_cap = int(_NU_MAX * n)
    quads = _laplace_bessel_quads(n, alpha, min(m_top, m_cap))
    if m_top > m_cap:        # after the integrals, whose arguments may fail
        raise ValueError(f"Bessel order must lie in [0, {_NU_MAX}], "
                         f"got {(m_cap + 1) / n!r}")
    lhs = 0.5 * quads[0]
    max_term_err = 0.0
    for m in range(1, m_top + 1):
        quad_term = quads[m]
        closed_term = step ** m * inv_root
        max_term_err = max(max_term_err,
                           abs(quad_term - closed_term)
                           / max(closed_term, 1e-300))
        lhs += quad_term
    rel_main = abs(lhs - rhs) / abs(rhs)

    eps = (1e-3, 1e-4, 1e-5)
    g = [_f_n_closed(n, 1.0 + e) - n / (2.0 * e) for e in eps]
    e1_ab = (10.0 * g[1] - g[0]) / 9.0
    e1_bc = (10.0 * g[2] - g[1]) / 9.0
    fit = (100.0 * e1_bc - e1_ab) / 99.0
    expected = (1.0 / n - n) / 12.0
    fit_err = abs(fit - expected)

    return _report(
        "laplace_bessel_resummation", lhs, rhs, 1e-8,
        [(rel_main, 1e-8), (fit_err, 1e-4)],
        {
            "n": n,
            "alpha": alpha,
            "orders_summed": m_top,     # the last order summed
            "order_cap": m_max,
            "max_single_transform_error": max_term_err,
            "finite_part_fit": fit,
            "finite_part_expected": expected,
            "finite_part_error": fit_err,
        },
    )


# ----------------------------------------------------------------------
# Frequency sums
# ----------------------------------------------------------------------

def check_matsubara_sum(beta: float, omega: float, mu: float) -> OracleReport:
    """Bilateral frequency sum vs the two-channel coth closed form.

    lhs: ``sum_k Re[1/((omega_k + i mu)^2 + omega^2)]`` with
    ``omega_k = 2 pi k / beta``; rhs: ``(beta/4 omega) [coth(beta
    (omega-mu)/2) + coth(beta (omega+mu)/2)]``.
    """
    if not (beta > 0.0 and omega > abs(mu)):
        raise ValueError("need beta > 0 and omega > |mu|")
    two_pi_over_beta = 2.0 * math.pi / beta
    mu2 = mu * mu

    def term(k: int) -> float:
        wk2 = (two_pi_over_beta * k) ** 2
        re_den = wk2 - mu2 + omega * omega
        return re_den / (re_den * re_den + 4.0 * wk2 * mu2)

    lhs = sum_bilateral(term, _SUM_ACC)
    rhs = (beta / (4.0 * omega)) * (_coth(0.5 * beta * (omega - mu))
                                    + _coth(0.5 * beta * (omega + mu)))
    rel = abs(lhs - rhs) / abs(rhs)
    return _report("matsubara_frequency_sum", lhs, rhs, 1e-10,
                   [(rel, 1e-10)],
                   {"beta": beta, "omega": omega, "mu": mu})


def check_log_sum_derivative(beta: float, omega: float) -> OracleReport:
    """Derivative of the log-determinant frequency sum, two routes.

    lhs: ``beta/2 + beta/(e^{beta omega} - 1)`` (the closed form, equal to
    ``(beta/2) coth(beta omega / 2)``); rhs: ``omega * sum_k
    beta^2 / ((beta omega)^2 + (2 pi k)^2)``.  Working at the derivative
    level sidesteps the divergent additive constant of the
    undifferentiated sum.  The sum's normalization is fixed by demanding
    the two routes agree; a variant carrying an extra factor of two fails
    this arbitration and is rejected.
    """
    if not (beta > 0.0 and omega > 0.0):
        raise ValueError("need positive beta and omega")
    bw = beta * omega

    def term(k: int) -> float:
        return beta * beta / (bw * bw + (2.0 * math.pi * k) ** 2)

    rhs = omega * sum_bilateral(term, _SUM_ACC)
    lhs = 0.5 * beta + beta / math.expm1(bw)
    rel = abs(lhs - rhs) / abs(rhs)
    return _report("log_determinant_derivative_sum", lhs, rhs, 1e-9,
                   [(rel, 1e-9)],
                   {"beta": beta, "omega": omega})


def check_poisson_resummation(beta: float, t_schwinger: float,
                              mu: float) -> OracleReport:
    """Gaussian winding sum vs its Poisson-dual frequency sum.

    lhs: ``sum_nu exp(-(nu beta)^2 / 4T - mu nu beta)``; rhs:
    ``(sqrt(4 pi T)/beta) sum_k Re exp(-T (omega_k + i mu)^2)``.  Both
    sums are truncated when terms fall below 1e-19 of the running total.
    """
    if not (beta > 0.0 and t_schwinger > 0.0 and math.isfinite(mu)):
        raise ValueError("need beta > 0, t_schwinger > 0, finite mu")
    t = t_schwinger

    lhs = 1.0
    for direction in (1.0, -1.0):
        a = beta * beta / (4.0 * t)
        b = -mu * beta * direction
        peak = max(0.0, b / (2.0 * a))
        nu = 1
        while True:
            term = math.exp(-a * nu * nu + b * nu)
            lhs += term
            if nu > peak and term < 1e-19 * lhs:
                break
            if nu > 10_000_000:
                raise ValueError("winding sum failed to truncate")
            nu += 1

    pref = math.sqrt(4.0 * math.pi * t) / beta
    total = math.exp(t * mu * mu)
    k = 1
    while True:
        wk = 2.0 * math.pi * k / beta
        amp = math.exp(-t * (wk * wk - mu * mu))
        total += 2.0 * amp * math.cos(2.0 * t * wk * mu)
        if wk * wk > mu * mu and amp < 1e-19 * abs(total):
            break
        if k > 10_000_000:
            raise ValueError("frequency sum failed to truncate")
        k += 1
    rhs = pref * total

    rel = abs(lhs - rhs) / abs(rhs)
    return _report("poisson_resummation", lhs, rhs, 1e-10,
                   [(rel, 1e-10)],
                   {"beta": beta, "t_schwinger": t, "mu": mu})


# ----------------------------------------------------------------------
# Bessel sum rules and the Weber integral chain
# ----------------------------------------------------------------------

def _weber_quads(nus: Sequence[float], a: float) -> list[float]:
    """``int_0^inf rho e^{-rho^2} J_nu(a rho)^2 d rho`` (R = 1 units) for
    each ``nu`` of ``nus``: the rows of one batch on an ``_order_table``
    of ``J_nu(a rho)``."""
    cap = 9.5                     # e^{-cap^2} ~ 1e-40: beyond is zero
    values = _order_table(nus, _bessel_j_ladder)

    def integrand(ps: np.ndarray, rows: np.ndarray) -> np.ndarray:
        near = ps <= cap
        p = ps[near]
        js = values(a * p, np.broadcast_to(rows, ps.shape)[near])
        out = np.zeros(ps.shape)
        out[near] = p * np.exp(-p * p) * js * js
        return out

    return _orders_integrated(integrand, len(nus), ((1.0, cap), 1.0))


def check_bessel_identities(z: float, n: float, a_r: float) -> OracleReport:
    """Bessel sum rules plus the Weber-integral saturation chain.

    At argument ``z``: the generating-function sum
    ``sum_m i^{-m} J_m(z) = e^{-iz}`` and the unitarity sum
    ``sum_m J_m(z)^2 = 1``, both to 1e-10.  At scale ``x = a_r^2/2``
    (R = 1 units): the Weber integral versus ``(1/2) e^{-x} I_nu(x)``
    for orders ``nu = m/n``, m = 0..3, to 1e-8; and the order sum
    ``e^{-x} sum_m I_{|m|/n}(x)`` against 1 (i.e. ``R^2/2`` after the
    half factor), to 1e-8.  The order sum saturates at ``n``, so rows
    with n != 1 fail this last comparison by construction; the measured
    plateau is recorded in ``parameters["plateau_measured"]``.
    """
    if not 0.0 < z <= 50.0:
        raise ValueError(f"z must lie in (0, 50], got {z!r}")
    if not 1.0 <= n <= 4.0:
        raise ValueError(f"order parameter n must lie in [1, 4], got {n!r}")
    if not 0.0 < a_r <= 22.0:
        raise ValueError(f"a_r must lie in (0, 22], got {a_r!r}")

    # (i) sum rules at integer order.
    m_top = int(z) + 40
    js = _bessel_j_ladder(0.0, m_top + 1, np.array([z]))[:, 0].tolist()
    real_sum = js[0]
    imag_sum = 0.0
    for m in range(1, m_top + 1):
        if m % 2 == 0:
            real_sum += 2.0 * (-1.0) ** (m // 2) * js[m]
        else:
            imag_sum += 2.0 * (-1.0) ** ((m + 1) // 2) * js[m]
    err_generating = math.hypot(real_sum - math.cos(z),
                                imag_sum + math.sin(z))
    unity = js[0] ** 2 + 2.0 * math.fsum(j * j for j in js[1:])
    err_unity = abs(unity - 1.0)

    # (ii) The order sum, normalized so the full-order value is 1, up to the
    # first nu > sqrt(2x) with a term below 1e-18 of it (or nu > 255): one I
    # table at x of the orders m/n up to 16 + 9 sqrt(x), else to the cap.
    x = 0.5 * a_r * a_r
    for top in (min(16.0 + 9.0 * math.sqrt(x), _NU_MAX), _NU_MAX):
        nus = np.arange(int(top * n) + 1) / n
        scaled = _order_table(nus, _bessel_i_scaled_ladder)(
            np.full(nus.size, x), np.arange(nus.size))
        running = np.cumsum(np.concatenate([scaled[:1], 2.0 * scaled[1:]]))
        stop = (nus * nus > 2 * x) & (scaled < 1e-18 * running) | (nus > 255)
        stop[0] = False
        if stop.any():
            break
    plateau = float(running[np.argmax(stop)])
    err_plateau = abs(plateau - 1.0)

    # Weber integrals, one row per order, against their closed forms.
    quads = _weber_quads(nus[:4].tolist(), a_r)
    weber_errors = [abs(quad - 0.5 * closed) / max(0.5 * closed, 1e-300)
                    for quad, closed in zip(quads, scaled.tolist())]
    err_weber = max(weber_errors)

    parameters = {
        "z": z,
        "n": n,
        "a_r": a_r,
        "generating_sum_error": err_generating,
        "unity_sum_error": err_unity,
        "weber_errors": weber_errors,
        "plateau_measured": plateau,
    }
    if err_plateau > 1e-8:
        parameters["plateau_note"] = (
            f"order sum saturates at {plateau:.9f}, consistent with n = "
            f"{n:g} copies of the full-order value rather than 1")

    return _report(
        "bessel_sum_rules", 0.5 * plateau, 0.5, 1e-8,
        [(err_generating, 1e-10), (err_unity, 1e-10),
         (err_weber, 1e-8), (err_plateau, 1e-8)],
        parameters,
    )


# ----------------------------------------------------------------------
# Derivative jump at the condensation temperature
# ----------------------------------------------------------------------

def check_derivative_jump(density: float, regime: Regime) -> OracleReport:
    """Closed-form derivative jump at T_C vs a Chebyshev interpolant per
    side.

    m = 1, V_2 = 1.  lhs: the jump (left - right) of
    ``discontinuity_estimate``; rhs: the same from
    ``condensate._chebyshev_slopes``, which differentiates the boundary
    part itself at T_C.  The jumps must agree to 1e-5 (the interpolants'
    own error: 2e-6 at rho = 1e4) and the left derivatives to 1e-10.  The
    known sign finding of the relativistic regime is not re-warned here.
    """
    params = ModelParams(1.0, 3, 1e4, FieldKind.CHARGED_COMPLEX)
    charge = ChargeSpec(density, regime)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="sign finding")
        closed = discontinuity_estimate(params, Geometry(), charge)
    left, right = _chebyshev_slopes(params, Geometry(), charge,
                                    closed.critical_temperature)
    jump = left - right
    err_jump = abs(closed.jump - jump) / abs(closed.jump)
    err_left = abs(closed.left_derivative - left) \
        / abs(closed.left_derivative)
    return _report(
        "derivative_jump_routes", closed.jump, jump, 1e-5,
        [(err_jump, 1e-5), (err_left, 1e-10)],
        {
            "density": density,
            "regime": regime.value,
            "critical_temperature": closed.critical_temperature,
            "jump_error": err_jump,
            "left_derivative_error": err_left,
        },
    )


# ----------------------------------------------------------------------
# Suite
# ----------------------------------------------------------------------

_MATSUBARA_BETAS = (0.5, 1.0, 2.5)
_MATSUBARA_OMEGAS = (0.7, 1.0, 2.0)
_MATSUBARA_MU_FRACTIONS = (0.0, 0.4, 0.9)


def _suite_laplace() -> list[OracleReport]:
    return [check_f_n_alpha(n, alpha)
            for n, alpha in ((1.0, 2.0), (2.0, 1.5), (2.0, 3.0),
                             (3.0, 2.0), (4.0, 2.0))]


def _suite_matsubara() -> list[OracleReport]:
    return [check_matsubara_sum(beta, omega, f * omega)
            for beta in _MATSUBARA_BETAS
            for omega in _MATSUBARA_OMEGAS
            for f in _MATSUBARA_MU_FRACTIONS]


def _suite_logsum() -> list[OracleReport]:
    return [check_log_sum_derivative(beta, omega)
            for beta, omega in ((1.0, 2.0), (0.5, 1.0), (2.0, 0.7),
                                (1.0, 40.0))]


def _suite_poisson() -> list[OracleReport]:
    return [check_poisson_resummation(beta, t, mu)
            for beta, t, mu in ((1.0, 0.3, 0.0), (1.0, 0.3, 0.5),
                                (1.0, 0.01, 0.0), (2.0, 1.0, 0.25),
                                (1.0, 0.05, -0.7))]


def _suite_bessel() -> list[OracleReport]:
    # Full-order rows only: the fractional-order saturation comparison is
    # knowingly unsatisfiable (see check_bessel_identities) and is
    # exercised separately by the test suite, not by the release gate.
    return [check_bessel_identities(z, 1.0, a_r)
            for z, a_r in ((3.0, 5.0), (12.5, 10.0), (37.0, 20.0))]


def _suite_jump() -> list[OracleReport]:
    return [check_derivative_jump(1e2, Regime.RELATIVISTIC),
            check_derivative_jump(1.0, Regime.NON_RELATIVISTIC)]


_SUITE_BUILDERS = {
    "laplace": _suite_laplace,
    "matsubara": _suite_matsubara,
    "logsum": _suite_logsum,
    "poisson": _suite_poisson,
    "bessel": _suite_bessel,
    "jump": _suite_jump,
}
FAMILIES = tuple(_SUITE_BUILDERS)


def run_suite(selection: Sequence[str] | None = None) -> list[OracleReport]:
    """Run the oracle lattice; optionally restricted to named families.

    Raises ValueError for unknown family names.  Reports come back in a
    fixed deterministic order.
    """
    names = list(FAMILIES) if selection is None else list(selection)
    unknown = [s for s in names if s not in _SUITE_BUILDERS]
    if unknown:
        raise ValueError(
            f"unknown oracle families {unknown}; valid: {list(FAMILIES)}")
    reports: list[OracleReport] = []
    for name in names:
        reports.extend(_SUITE_BUILDERS[name]())
    return reports
