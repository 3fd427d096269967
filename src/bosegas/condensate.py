r"""Bose-Einstein condensation of the charged gas at fixed charge density.

Given a conserved charge density :math:`\rho` in D = 3, the chemical
potential :math:`\mu(T)` is pinned by

.. math::

   \rho = \int\!\frac{d^3p}{(2\pi)^3}\,
          \big[n(\omega-\mu) - n(\omega+\mu)\big],

saturating at :math:`|\mu| = m` below the critical temperature, where the
remainder :math:`\rho_0 = |\rho| - \rho^e` occupies the zero mode.  Two
regimes are supported: the non-relativistic gas, where the excited density
has the closed form :math:`(mT/2\pi)^{3/2}\,\mathrm{Li}_{3/2}(z)` with
fugacity :math:`z = e^{\mu_{NR}/T}`, and the fully relativistic gas solved
by quadrature with the antiparticle branch always included.

Every fixed-charge root solve (the relativistic :math:`T_C`, and
:math:`\mu(T)` in both regimes) runs one safeguarded bracketed solver,
the ``_solve_bracketed`` coroutine: secant steps through the two latest
points, with bisection only when a step leaves the bracket or two steps
in a row fail to halve the residual.  The gas-phase unknown is
:math:`u = \sqrt{m - |\mu|}` (relativistic) or :math:`\sqrt{-\mu_{NR}/T}`
(non-relativistic): the density falls like :math:`C - c\,u` just above
:math:`T_C`, so it is close to linear in :math:`u` where it is singular in
:math:`\mu`.  Far above :math:`T_C`, where :math:`|\mu| \ll m` and
:math:`m - u^2` cannot resolve it, the relativistic unknown is
:math:`|\mu|` itself.  :math:`T_C` and non-relativistic rows drive the
solver one row at a time.  A relativistic :func:`sweep` solves its rows
in one loop (``_solve_rel_rows``): a batched capacity pass condenses
some, each gas row drives its own solver from its own chord start, and
one batched density integral per round answers every open row; the
reports take one batched pass per moment.  Every batched integral
refines each row on its own (``_integrate_radial_rows``), so a row's
bytes do not depend on the rows swept with it;
``solve_chemical_potential`` and ``mutual_info_at_fixed_charge`` are
sweeps of one row.  Nothing is cached between calls.

The fixed-charge mutual information across a dividing plane of transverse
two-volume :math:`V_2` is assembled here with the boundary normalization

.. math::

   I_m^{thermal} = \frac{\pi}{6}\, V_2 \int\!\frac{d^3p}{(2\pi)^3}\,
                   \frac{n(\omega-\mu)+n(\omega+\mu)}{\omega},

whose temperature derivative is continuous except at :math:`T_C`, where it
jumps by a finite amount.  ``discontinuity_estimate`` gives that jump,
left minus right, in closed form: exactly in the non-relativistic regime,
and as two occupation integrals at gap 0 in the relativistic one (the
left derivative, and the jump as :math:`(\pi V_2/6m)\,dC/dT` with
:math:`C` the charge capacity).  It compares the jump with the closed-form
predictions; the ultra-relativistic one, :math:`-(\pi\sqrt3/9)\,V_2
\sqrt{|\rho|/m}`, carries the sign of right minus left, so the two
disagree in sign and the result reports that as a sign finding.
A Chebyshev interpolant of the boundary part itself on each side of
:math:`T_C`, differentiated there (``_chebyshev_slopes``), is kept as an
independent cross-check for the ``jump`` family of
:func:`bosegas.oracles.run_suite`.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import ConvergenceError
from .specfun import AccuracyBudget, DEFAULT_BUDGET, polylog, zeta
from .quadrature import _integrate_radial_report
from .thermo import (EntropyReport, FieldKind, Geometry, ModelParams,
                     ThermalPoint, _bose, _boundary_charged, _entropy_charged,
                     _entropy_report, _occupation_integral, _occupation_rows,
                     _occupation_spec, zero_t_entanglement)

__all__ = [
    "ChargeSpec",
    "CondensateState",
    "DiscontinuityResult",
    "Phase",
    "Regime",
    "SweepRow",
    "SweepTable",
    "charge_density_rel",
    "critical_temperature",
    "discontinuity_estimate",
    "excited_density_nr",
    "mutual_info_at_fixed_charge",
    "solve_chemical_potential",
    "sweep",
]

_ZETA_3_2 = zeta(1.5)

# Auto regime selection: T_C(NR estimate) / m below the first threshold is
# treated as non-relativistic, above the second as relativistic; the band
# in between is refused so the caller must choose explicitly.
_AUTO_NR_MAX = 0.1
_AUTO_REL_MIN = 10.0

# The relativistic gas solve runs in |mu| instead of sqrt(m - |mu|) when
# the root's lower bound lies below this fraction of m (_solve_rel_rows).
_SMALL_MU = 1e-3


class Regime(enum.Enum):
    """Kinematic regime of the charged gas."""

    NON_RELATIVISTIC = "nr"
    RELATIVISTIC = "rel"
    AUTO = "auto"


class Phase(enum.Enum):
    """Thermodynamic phase at the evaluation point."""

    CONDENSED = "condensed"
    GAS = "gas"


@dataclass(frozen=True)
class ChargeSpec:
    """Conserved charge density and how to treat its kinematics.

    Attributes
    ----------
    density : float
        Charge density rho != 0; its sign selects particles/antiparticles.
    regime : Regime
        NON_RELATIVISTIC, RELATIVISTIC, or AUTO (estimate-based with a
        refusal band where neither limit is trustworthy).
    """

    density: float
    regime: Regime = Regime.AUTO

    def __post_init__(self) -> None:
        if not (math.isfinite(self.density) and self.density != 0.0):
            raise ValueError(f"density must be finite and nonzero, "
                             f"got {self.density!r}")
        if not isinstance(self.regime, Regime):
            raise ValueError(f"regime must be a Regime, got {self.regime!r}")


@dataclass(frozen=True)
class CondensateState:
    """Solved chemical potential and charge bookkeeping at one temperature."""

    temperature: float          # T > 0
    mu: float                   # relativistic chemical potential, |mu| <= m
                                # except in an NR gas hotter than about m,
                                # where |mu| > m (with a UserWarning)
    z_nr: float                 # non-relativistic fugacity e^((|mu|-m)/T)
    excited_density: float      # |charge| carried by excited modes
    condensate_density: float   # |charge| in the zero mode (0 in the gas)
    phase: Phase


@dataclass(frozen=True)
class SweepRow:
    """One temperature row of a fixed-charge sweep.

    ``error`` is None for a clean row; otherwise it holds the failure
    message and the numeric fields are NaN.
    """

    temperature: float
    mu: float
    excited_density: float
    condensate_density: float
    mutual_information: float
    boundary_thermal_part: float
    geometric_entropy: float
    thermal_entropy: float
    error: str | None = None


@dataclass(frozen=True)
class SweepTable:
    """Rows of a temperature sweep plus run-level metadata."""

    rows: tuple[SweepRow, ...]
    metadata: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class DiscontinuityResult:
    """One-sided derivatives of I_m at the critical temperature.

    ``jump`` is left - right.  ``analytic_jump`` is the closed-form
    prediction: (pi/4) V_2 rho/(m T_C) in the NR regime, in the same
    left - right sign, and the ultra-relativistic -(pi sqrt3/9) V_2
    sqrt(|rho|/m) in the relativistic one, whose sign is that of
    right - left; the relativistic ``jump`` is positive, so the two have
    opposite signs and ``stencil_orders["sign_finding"]`` says so.

    ``stencil_orders`` keeps its name from a finite-difference route that
    is gone.  It holds ``route`` ("closed-form"), ``left`` and ``right``
    dicts with an integer ``levels`` (always 0), ``achieved``, the
    relative error estimate of each integral (empty in the NR regime,
    which takes none), ``sign_finding``, and one regime-specific
    reference value.
    """

    critical_temperature: float
    left_derivative: float      # d I_m / dT as T -> T_C from below
    right_derivative: float     # d I_m / dT as T -> T_C from above
    jump: float                 # left_derivative - right_derivative
    analytic_jump: float        # closed-form prediction for the jump
    stencil_orders: dict        # route, per-side diagnostics, findings


# ----------------------------------------------------------------------
# Densities
# ----------------------------------------------------------------------

def excited_density_nr(temperature: float, mu_nr: float, mass: float,
                       acc: AccuracyBudget = DEFAULT_BUDGET) -> float:
    r"""Non-relativistic excited charge density.

    :math:`\rho^e = (mT/2\pi)^{3/2}\,\mathrm{Li}_{3/2}(e^{\mu_{NR}/T})`
    with :math:`\mu_{NR} \le 0` measured from the mass threshold.
    """
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ValueError(f"temperature must be positive, got {temperature!r}")
    if not (math.isfinite(mass) and mass > 0.0):
        raise ValueError(f"mass must be positive, got {mass!r}")
    if mu_nr > 0.0:
        raise ValueError(f"mu_nr must be <= 0, got {mu_nr!r}")
    z = math.exp(mu_nr / temperature)
    lam = (mass * temperature / (2.0 * math.pi)) ** 1.5
    return lam * polylog(1.5, z, acc)


def _charge_density_rel_at(temperature: float, mass: float, a: float,
                           acc: AccuracyBudget) -> float:
    """Relativistic excited |charge| density at a = |mu| in [0, m].

    The occupation difference is taken as
    n(omega - a) - n(omega + a) = n_- (1 + n_+) (1 - e^(-2a/T)), which has
    no difference of large terms and no overflow.
    """
    c = -math.expm1(-2.0 * a / temperature)
    return _occupation_integral(
        3, mass, temperature, a,
        lambda x_minus, x_plus, omega:
            _capacity_moment(x_minus, x_plus, omega) * c, acc)


def _capacity_moment(x_minus, x_plus, _omega):
    """n_- (1 + n_+): the charge moment without its factor 1 - e^(-2a/T)."""
    return _bose(x_minus) * (1.0 + _bose(x_plus))


def _charge_rows(temperatures: Sequence[float], mus: Sequence[float],
                 mass: float, acc: AccuracyBudget) -> list:
    """Relativistic excited |charge| density at one (T, a = |mu|) per
    row, in one batch; a row whose integral fails holds its exception."""
    values = _occupation_rows(3, mass, temperatures, mus, _capacity_moment,
                              acc)
    return [v if isinstance(v, Exception) else -math.expm1(-2.0 * a / t) * v
            for v, t, a in zip(values, temperatures, mus)]


def charge_density_rel(point: ThermalPoint, mass: float,
                       acc: AccuracyBudget = DEFAULT_BUDGET) -> float:
    """Signed relativistic charge density at the given (T, mu).

    Particle minus antiparticle occupation integral in D = 3; odd in mu.
    """
    if not (math.isfinite(mass) and mass > 0.0):
        raise ValueError(f"mass must be positive, got {mass!r}")
    a = abs(point.chemical_potential)
    if a > mass:
        raise ValueError(f"|mu| = {a!r} exceeds the mass {mass!r}")
    if a == 0.0:
        return 0.0
    value = _charge_density_rel_at(point.temperature, mass, a, acc)
    return math.copysign(value, point.chemical_potential)


# ----------------------------------------------------------------------
# Root finding
# ----------------------------------------------------------------------

_MAX_ROOT_ITER = 200    # steps of one bracketed root search
_RESIDUAL_RTOL = 1e-10  # gas-phase mu(T) solves stop at this |residual| / rho


def _solve_bracketed(lo: float, hi: float, f_lo: float, f_hi: float, *,
                     x_rtol: float, f_stop: Callable[[float], bool],
                     guess: float | None = None):
    """Safeguarded bracketed secant root finder, as a coroutine that
    yields each point x whose residual it needs and returns the root.

    ``f(lo)`` and ``f(hi)`` must differ in sign.  The first point is
    ``guess`` when it lies inside the bracket; every later step is the
    secant through the two latest points.  A step that leaves the open
    bracket is replaced by bisection, and so is the step after two in a
    row that failed to halve the smallest residual seen, which bounds the
    work on any bracket.  Stops when ``f_stop(residual)`` holds or the
    bracket shrinks to ``x_rtol`` relative width.
    """
    if f_stop(f_lo):
        return lo
    if f_stop(f_hi):
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError("root is not bracketed")
    x_prev, f_prev = lo, f_lo
    x_curr, f_curr = hi, f_hi
    best = min(abs(f_lo), abs(f_hi))
    stalls = 0
    x_new = guess if guess is not None and lo < guess < hi else None
    for _ in range(_MAX_ROOT_ITER):
        if x_new is None and stalls < 2 and f_curr != f_prev:
            x_new = x_curr - f_curr * (x_curr - x_prev) / (f_curr - f_prev)
        if x_new is None or not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
            stalls = 0
        f_new = yield x_new
        if f_stop(f_new):
            return x_new
        if f_lo * f_new <= 0.0:
            hi, f_hi = x_new, f_new
        else:
            lo, f_lo = x_new, f_new
        stalls = 0 if abs(f_new) <= 0.5 * best else stalls + 1
        best = min(best, abs(f_new))
        x_prev, f_prev = x_curr, f_curr
        x_curr, f_curr = x_new, f_new
        x_new = None
        if hi - lo <= x_rtol * max(abs(lo), abs(hi), 1e-300):
            return 0.5 * (lo + hi)
    raise ConvergenceError("bracketed root search exhausted its iterations",
                           estimate=0.5 * (lo + hi))


def _solve_one(solve, fn: Callable[[float], float]) -> float:
    """Drive a ``_solve_bracketed`` coroutine with ``fn``."""
    residual = None
    try:
        while True:
            residual = fn(solve.send(residual))
    except StopIteration as stop:
        return stop.value


def _resolve_regime(charge: ChargeSpec, mass: float) -> Regime:
    if charge.regime is not Regime.AUTO:
        return charge.regime
    tc_nr = _critical_temperature_nr(charge.density, mass)
    ratio = tc_nr / mass
    if ratio <= _AUTO_NR_MAX:
        return Regime.NON_RELATIVISTIC
    if ratio >= _AUTO_REL_MIN:
        return Regime.RELATIVISTIC
    raise ValueError(
        f"Auto regime refused: estimated T_C/m = {ratio:.3g} sits between "
        f"{_AUTO_NR_MAX} and {_AUTO_REL_MIN}, where neither limit is "
        "reliable; pick NON_RELATIVISTIC or RELATIVISTIC explicitly")


def _critical_temperature_nr(density: float, mass: float) -> float:
    return (2.0 * math.pi / mass) * (abs(density) / _ZETA_3_2) ** (2.0 / 3.0)


def _solver_acc(acc: AccuracyBudget) -> AccuracyBudget:
    """Quadrature budget used inside root solves; keeps residuals clean.

    The gas-phase solve stops at a residual of 1e-10 rho, so the density
    integral must be good to well below that whatever the caller asked.
    """
    return AccuracyBudget(
        relative_tolerance=min(1e-12, acc.relative_tolerance),
        max_terms=acc.max_terms,
        max_subdivisions=max(acc.max_subdivisions, 4000))


def _solve_nr(temperature: float, rho_abs: float, mass: float,
              acc: AccuracyBudget) -> tuple[float, float, float, float, Phase]:
    """Return (gap, |mu|, excited, condensed, phase) for the NR gas.

    Warns when the solved gap exceeds the mass: mu = m - gap then breaks
    |mu| <= m, a sign that the gas is too hot for the NR regime.
    """
    lam = (mass * temperature / (2.0 * math.pi)) ** 1.5
    capacity = lam * _ZETA_3_2
    if capacity <= rho_abs:
        return 0.0, mass, capacity, rho_abs - capacity, Phase.CONDENSED

    # Solve Li_{3/2}(e^{-d}) = target for v = sqrt(d), d = gap / T: near
    # d = 0 the polylog falls like zeta(3/2) - 2 sqrt(pi d), linear in v.
    target = rho_abs / lam                 # < zeta(3/2)
    d_hi = max(50.0, -math.log(target / 2.0) + 5.0) if target > 0 else 50.0
    v_hi = math.sqrt(d_hi)

    def residual(v: float) -> float:
        return polylog(1.5, math.exp(-v * v), acc) - target

    v = _solve_one(_solve_bracketed(
        0.0, v_hi, _ZETA_3_2 - target, residual(v_hi), x_rtol=1e-14,
        f_stop=lambda r: abs(r) <= _RESIDUAL_RTOL * target), residual)
    gap = temperature * v * v
    if gap > mass:
        warnings.warn(
            f"non-relativistic gas at T = {temperature!r}: the gap "
            f"m - |mu| = {gap:.6g} exceeds the mass {mass!r}, so |mu| > m; "
            "the NR regime does not describe this gas (use the relativistic "
            "regime)", stacklevel=5)
    return gap, mass - gap, rho_abs, 0.0, Phase.GAS


def _solve_rel_rows(temperatures: Sequence[float], rho_abs: float,
                    mass: float, acc: AccuracyBudget, residual_rtol: float
                    ) -> list:
    """(gap, |mu|, excited, condensed, phase) per temperature, or the
    exception its row raised.

    A batched capacity pass (a = m) condenses every row whose capacity is
    at most rho; each gas row then runs its own ``_solve_bracketed``, and
    one batched density integral per round answers every open row.  The
    unknown is u = sqrt(gap), bracketed from u ~ 0 (capacity - rho) to
    u = sqrt(m) (mu = 0, -rho) and started where the chord between the
    bracket ends crosses zero in the gap: rho is convex in the gap, so
    that start lies above the root, and close to it wherever rho is
    near-linear in the gap (all but a thin layer just above T_C).

    m - u^2 resolves |mu| only to ~1e-14 m.  rho is convex in |mu|, so
    a_low = m rho / capacity bounds the root from below; below _SMALL_MU m
    (far above T_C) the same solve runs in |mu| on [0, m] from a_low.
    Just above a T_C << m, m - u^2 can round to one double next to m
    over the whole bracket: a row ends once its |mu| repeats.
    """
    q_acc = _solver_acc(acc)
    out = _charge_rows(temperatures, [mass] * len(temperatures), mass, q_acc)
    solves: dict = {}       # gas row -> (solves in |mu|, its coroutine)
    for i, capacity in enumerate(out):
        if isinstance(capacity, Exception):
            continue
        if capacity <= rho_abs:
            out[i] = (0.0, mass, capacity, rho_abs - capacity, Phase.CONDENSED)
            continue
        a_low = mass * rho_abs / capacity
        in_mu = a_low < _SMALL_MU * mass
        if in_mu:
            bracket, guess = (0.0, mass, -rho_abs, capacity - rho_abs), a_low
        else:
            bracket = (math.sqrt(1e-30 * mass), math.sqrt(mass),
                       capacity - rho_abs, -rho_abs)
            guess = math.sqrt(mass * (capacity - rho_abs) / capacity)
        solves[i] = in_mu, _solve_bracketed(
            *bracket, x_rtol=1e-14, guess=guess,
            f_stop=lambda r: abs(r) <= residual_rtol * rho_abs)
    # open row -> its last residual and the |mu| that residual is at
    replies = dict.fromkeys(solves, (None, None))
    while replies:
        points: dict = {}   # open row -> the |mu| its solve asks for
        for i, (reply, last) in replies.items():
            in_mu, solve = solves[i]
            try:
                x = solve.send(reply)
            except StopIteration as stop:
                x = stop.value
            except (ValueError, ConvergenceError) as exc:
                out[i] = exc
                continue
            else:
                a = x if in_mu else mass - x * x
                if a != last:
                    points[i] = a
                    continue
                solve.close()           # its |mu| has stopped moving
            out[i] = ((mass - x, x) if in_mu else (x * x, mass - x * x)) \
                + (rho_abs, 0.0, Phase.GAS)
        values = _charge_rows([temperatures[i] for i in points],
                              list(points.values()), mass, q_acc)
        replies = {}
        for i, value in zip(points, values):
            if isinstance(value, Exception):
                out[i] = value
            else:
                replies[i] = value - rho_abs, points[i]
    return out


def _caught(fn: Callable, *args):
    """fn(*args), or the ValueError or ConvergenceError it raised."""
    try:
        return fn(*args)
    except (ValueError, ConvergenceError) as exc:
        return exc


def _solve_states(temperatures: Sequence[float], charge: ChargeSpec,
                  mass: float, acc: AccuracyBudget) -> list:
    """Solved state per temperature, or the exception its row raised.

    Every temperature is checked before any integral, so a bad one fails
    only its own row.  Non-relativistic rows solve one by one,
    relativistic rows together (``_solve_rel_rows``).
    """
    regime = _resolve_regime(charge, mass)
    rho_abs = abs(charge.density)
    out: list = [ValueError(f"temperature must be positive, got {t!r}")
                 for t in temperatures]
    valid = [i for i, t in enumerate(temperatures)
             if math.isfinite(t) and t > 0.0]
    temps = [temperatures[i] for i in valid]
    if regime is Regime.NON_RELATIVISTIC:
        solved = []
        for t in temps:
            solved.append(_caught(_solve_nr, t, rho_abs, mass, acc))
    else:
        solved = _solve_rel_rows(temps, rho_abs, mass, acc, _RESIDUAL_RTOL)
    for i, t, row in zip(valid, temps, solved):
        out[i] = row if isinstance(row, Exception) else CondensateState(
            temperature=t,
            mu=math.copysign(1.0, charge.density) * row[1],
            z_nr=math.exp(-row[0] / t),
            excited_density=row[2],
            condensate_density=row[3],
            phase=row[4],
        )
    return out


def solve_chemical_potential(temperature: float, charge: ChargeSpec,
                             mass: float,
                             acc: AccuracyBudget = DEFAULT_BUDGET
                             ) -> CondensateState:
    """Solve mu(T) at fixed charge density; condensed below capacity.

    In the gas phase the returned chemical potential reproduces the charge
    density to 1e-10 (relative) where the doubles next to ``|mu|`` resolve
    that; just above a T_C << m, ``|mu|`` is m or a few ulps below it (at
    rho = 1e-8, T = T_C (1 + 1e-6), mu = m misses rho by 1.5e-6 and the
    double below m by 2.2e-6).  In the condensed phase ``|mu| = m``
    exactly and the charge excess sits in the condensate.
    A non-relativistic gas state whose gap exceeds the mass breaks
    ``|mu| <= m``; it is returned with a ``UserWarning``.  This is a sweep
    of one row, so it gives the bytes of that row in any sweep.
    """
    if not (math.isfinite(mass) and mass > 0.0):
        raise ValueError(f"mass must be positive, got {mass!r}")
    (state,) = _solve_states([temperature], charge, mass, acc)
    if isinstance(state, Exception):
        raise state
    return state


def critical_temperature(charge: ChargeSpec, mass: float,
                         acc: AccuracyBudget = DEFAULT_BUDGET) -> float:
    r"""Condensation temperature at the given charge density.

    Non-relativistic: the closed form
    :math:`T_C = (2\pi/m)\,(|\rho|/\zeta(3/2))^{2/3}` (series-consistent
    with :func:`excited_density_nr`).  Relativistic: ``charge capacity(T_C)
    = |rho|`` solved with the full quadrature, bracketed around the
    non-relativistic and ultra-relativistic (:math:`\sqrt{3|\rho|/m}`)
    estimates, whichever limit applies.
    """
    if not (math.isfinite(mass) and mass > 0.0):
        raise ValueError(f"mass must be positive, got {mass!r}")
    regime = _resolve_regime(charge, mass)
    rho_abs = abs(charge.density)
    tc_nr = _critical_temperature_nr(rho_abs, mass)
    if regime is Regime.NON_RELATIVISTIC:
        return tc_nr

    tc_ur = math.sqrt(3.0 * rho_abs / mass)
    q_acc = _solver_acc(acc)

    # sqrt(capacity) is linear in T in the ultra-relativistic limit and
    # close to it (T^(3/4)) in the non-relativistic one.
    def residual(t: float) -> float:
        return math.sqrt(_charge_density_rel_at(t, mass, mass, q_acc)
                         / rho_abs) - 1.0

    # The capacity exceeds both limiting forms, so T_C lies just below the
    # smaller estimate (by at most ~9%, in the crossover near rho ~ m^3).
    lo, hi = 0.5 * min(tc_nr, tc_ur), 1.5 * min(tc_nr, tc_ur)
    return _solve_one(_solve_bracketed(
        lo, hi, residual(lo), residual(hi), x_rtol=1e-12,
        f_stop=lambda r: abs(r) <= 5e-12), residual)


# ----------------------------------------------------------------------
# Fixed-charge mutual information
# ----------------------------------------------------------------------

def _nr_entropy_density(temperature: float, mass: float, z: float,
                        acc: AccuracyBudget) -> float:
    """Non-relativistic gas entropy density (both polylog terms)."""
    lam = (mass * temperature / (2.0 * math.pi)) ** 1.5
    term = 2.5 * polylog(2.5, z, acc)
    if z < 1.0:
        term -= math.log(z) * polylog(1.5, z, acc)
    return lam * term


def _validate_fixed_charge_model(params: ModelParams) -> None:
    if params.dimension != 3:
        raise ValueError("fixed-charge operations are defined in D = 3")
    if params.field_kind is not FieldKind.CHARGED_COMPLEX:
        raise ValueError("fixed-charge operations need field_kind "
                         "CHARGED_COMPLEX")


def _reports(params: ModelParams, geometry: Geometry,
             states: Sequence[CondensateState], regime: Regime,
             acc: AccuracyBudget) -> list:
    """The fixed-charge entropy report at each solved state, or the
    exception its row raised; relativistic rows take one batched pass per
    moment."""
    m = params.mass
    if regime is Regime.NON_RELATIVISTIC:
        parts = [((math.pi / 6.0) * (geometry.two_volume / m)
                  * state.excited_density,
                  _caught(_nr_entropy_density, state.temperature, m,
                          state.z_nr, acc)) for state in states]
    else:
        temps = [state.temperature for state in states]
        mus = [abs(state.mu) for state in states]
        boundary, entropy = (_occupation_rows(3, m, temps, mus, moment, acc)
                             for moment in (_boundary_charged,
                                            _entropy_charged))
        coeff = (math.pi / 6.0) * geometry.two_volume
        parts = [(b if isinstance(b, Exception) else coeff * b, s)
                 for b, s in zip(boundary, entropy)]
    zero_t = zero_t_entanglement(params, geometry)
    return [b if isinstance(b, Exception)
            else s if isinstance(s, Exception)
            else _entropy_report(zero_t, b,
                                 -0.5 * geometry.subsystem_volume * s)
            for b, s in parts]


def mutual_info_at_fixed_charge(params: ModelParams, geometry: Geometry,
                                temperature: float, charge: ChargeSpec,
                                acc: AccuracyBudget = DEFAULT_BUDGET
                                ) -> EntropyReport:
    """Entropy report at fixed charge density (mu solved internally).

    The thermal boundary part carries the fixed-charge normalization
    ``(pi/6) V_2`` (times the occupation integral; in the NR regime that
    reduces to ``(pi/6) (V_2/m) rho_e`` exactly).  This is a sweep of one
    row, with its bytes.
    """
    _validate_fixed_charge_model(params)
    regime = _resolve_regime(charge, params.mass)
    (state,) = _solve_states([temperature], ChargeSpec(charge.density, regime),
                             params.mass, acc)
    if isinstance(state, Exception):
        raise state
    (report,) = _reports(params, geometry, [state], regime, acc)
    if isinstance(report, Exception):
        raise report
    return report


def sweep(params: ModelParams, geometry: Geometry, charge: ChargeSpec,
          temperatures: Sequence[float],
          acc: AccuracyBudget = DEFAULT_BUDGET, *,
          tc: float | None = None) -> SweepTable:
    """Fixed-charge sweep over temperatures; failures recorded per row.

    Relativistic rows solve and report in lockstep (see the module doc),
    yet a row's bytes are those of its one-point sweep, whatever the
    other rows; a bad temperature or a failed integral fails only its own
    row.  ``tc`` is a critical temperature the caller already solved for
    this charge and budget; it is solved here when None.
    """
    _validate_fixed_charge_model(params)
    regime = _resolve_regime(charge, params.mass)
    charge = ChargeSpec(charge.density, regime)
    if tc is None:
        tc = critical_temperature(charge, params.mass, acc)
    temps = list(temperatures)
    states = _solve_states(temps, charge, params.mass, acc)
    reports = iter(_reports(
        params, geometry, [s for s in states if not isinstance(s, Exception)],
        regime, acc))
    rows: list[SweepRow] = []
    for t, state in zip(temps, states):
        rep = state if isinstance(state, Exception) else next(reports)
        if isinstance(rep, Exception):
            rows.append(SweepRow(t, *[float("nan")] * 7, error=str(rep)))
            continue
        rows.append(SweepRow(
            temperature=t,
            mu=state.mu,
            excited_density=state.excited_density,
            condensate_density=state.condensate_density,
            mutual_information=rep.mutual_information,
            boundary_thermal_part=rep.boundary_thermal_part,
            geometric_entropy=rep.geometric_entropy,
            thermal_entropy=-2.0 * rep.extensive_thermal_part,
        ))
    metadata = {
        "mass": repr(params.mass),
        "uv_cutoff": repr(params.uv_cutoff),
        "charge_density": repr(charge.density),
        "regime": regime.value,
        "critical_temperature": repr(tc),
    }
    return SweepTable(rows=tuple(rows), metadata=metadata)


# ----------------------------------------------------------------------
# Derivative discontinuity at T_C
# ----------------------------------------------------------------------

def _jump_budget(acc: AccuracyBudget) -> AccuracyBudget:
    """Budget of every integral behind the jump, on either route."""
    return AccuracyBudget(relative_tolerance=1e-13, max_terms=acc.max_terms,
                          max_subdivisions=max(acc.max_subdivisions, 6000))


def _left_slope_moment(x_minus, x_plus, omega):
    """T d/dT of the boundary moment at fixed a: sum x n (1 + n) / omega."""
    n_minus, n_plus = _bose(x_minus), _bose(x_plus)
    return (x_minus * n_minus * (1.0 + n_minus)
            + x_plus * n_plus * (1.0 + n_plus)) / omega


def _closed_form_slopes(tc: float, mass: float, v2: float,
                        acc: AccuracyBudget) -> tuple[float, float, dict]:
    r"""Left derivative and jump of the relativistic boundary part at T_C.

    Both are occupation integrals at gap 0.  Below T_C, a = m is fixed, so
    the left derivative is the T-derivative of the boundary moment.  Above,
    a(T) keeps rho fixed; da/dT -> 0 at T_C while the a-derivatives of the
    boundary part and of rho both diverge, in the ratio 1/m of their
    p -> 0 ends, so the jump is :math:`\Delta = (\pi V_2/6m)\,dC/dT` with
    C(T) the charge capacity.  dC/dT is the T-derivative of the capacity
    kernel :math:`n_-(1+n_+)\,c`, :math:`c = 1 - e^{-2m/T}`:
    :math:`(c/T)\int n_-(1+n_+)\,[x_-(1+n_-) + x_+ n_+ - k]` with
    :math:`k = (2m/T)/(e^{2m/T}-1)`.  Every term is positive except
    :math:`-k`, and :math:`x_-(1+n_-) \ge 1 \ge k`, so nothing cancels.
    The plain difference :math:`x_- n_-(1+n_-) - x_+ n_+(1+n_+)` of the
    two branches does cancel: at rho = 1e10 it stops at 4.4e-12 after
    6,000 subdivisions, short of the 1e-13 budget.

    Returns (left derivative, jump, relative achieved error per integral).
    """
    tight = _jump_budget(acc)
    y = 2.0 * mass / tc
    c = -math.expm1(-y)
    k = y * math.exp(-y) / c        # y / (e^y - 1), finite for any y

    def capacity_slope(x_minus, x_plus, _omega):
        n_minus, n_plus = _bose(x_minus), _bose(x_plus)
        return n_minus * (1.0 + n_plus) * (
            x_minus * (1.0 + n_minus) + x_plus * n_plus - k)

    coeff = math.pi / 6.0 * v2
    s_left, e_left = _integrate_radial_report(_occupation_spec(
        3, mass, tc, mass, _left_slope_moment, tight))
    s_jump, e_jump = _integrate_radial_report(_occupation_spec(
        3, mass, tc, mass, capacity_slope, tight))
    achieved = {"left_derivative": e_left / s_left, "jump": e_jump / s_jump}
    return coeff * s_left / tc, coeff / mass * c * s_jump / tc, achieved


def discontinuity_estimate(params: ModelParams, geometry: Geometry,
                           charge: ChargeSpec,
                           acc: AccuracyBudget = DEFAULT_BUDGET
                           ) -> DiscontinuityResult:
    r"""Closed-form jump of :math:`\partial I_m/\partial T` at :math:`T_C`.

    Only the thermal boundary part depends on T (the vacuum piece is a
    constant).  Non-relativistic: below T_C it is
    :math:`(\pi/6)(V_2/m)\,C(T)` with :math:`C \propto T^{3/2}`, above it
    :math:`(\pi/6)(V_2/m)\rho`, so the left derivative is
    :math:`(3/2)(\pi/6)(V_2/m)\rho/T_C` and the right one 0, exactly.
    Relativistic: the left derivative and the jump are one occupation
    integral each at gap 0 (see ``_closed_form_slopes``), and
    right = left - jump.

    ``jump`` is left - right.  ``analytic_jump`` is the NR closed form
    :math:`(\pi/4)\,V_2\rho/(m T_C)` (left - right), or the
    ultra-relativistic prediction :math:`-(\pi\sqrt3/9)\,V_2\sqrt{|\rho|/m}`,
    whose sign is that of right - left.  Where the two signs differ the
    result carries, and warns with, a sign finding; neither number is
    adjusted to match.
    """
    _validate_fixed_charge_model(params)
    regime = _resolve_regime(charge, params.mass)
    m = params.mass
    rho_abs = abs(charge.density)
    v2 = geometry.two_volume
    tc = critical_temperature(ChargeSpec(charge.density, regime), m, acc)
    if regime is Regime.NON_RELATIVISTIC:
        left = 1.5 * (math.pi / 6.0) * (v2 / m) * rho_abs / tc
        right, achieved = 0.0, {}
        analytic = 0.25 * math.pi * v2 * rho_abs / (m * tc)
        reference = {"nr_rescaled_convention_jump": (
            0.5 * math.pi ** 2 * _ZETA_3_2 ** (2.0 / 3.0) * v2
            * rho_abs ** (1.0 / 3.0))}
    else:
        left, delta, achieved = _closed_form_slopes(tc, m, v2, acc)
        right = left - delta
        analytic = -(math.pi * math.sqrt(3.0) / 9.0) * v2 \
            * math.sqrt(rho_abs / m)
        reference = {"critical_temperature_leading":
                     math.sqrt(3.0 * rho_abs / m)}
    jump = left - right         # of the slopes as reported
    finding = None
    if jump * analytic < 0.0:
        agree = abs(abs(jump / analytic) - 1.0) < 0.05
        finding = (
            f"sign finding: closed-form jump {jump:+.6g} (left - right) and "
            f"UR prediction {analytic:+.6g} (right - left) have opposite "
            f"signs; magnitudes {'agree' if agree else 'differ'} "
            "(closed-form jump kept as computed)")
        warnings.warn(finding, stacklevel=2)
    return DiscontinuityResult(
        critical_temperature=tc,
        left_derivative=left,
        right_derivative=right,
        jump=jump,
        analytic_jump=analytic,
        stencil_orders={"left": {"levels": 0}, "right": {"levels": 0},
                        "achieved": achieved, **reference,
                        "route": "closed-form", "sign_finding": finding},
    )


# Chebyshev-Lobatto points per side of T_C for the jump cross-check.  The
# slope amplifies the integrals' ~1e-13 noise by about n^2 T_C / h, so n
# stays small and fixed.
_JUMP_POINTS = 8


def _chebyshev_slopes(params: ModelParams, geometry: Geometry,
                      charge: ChargeSpec, tc: float,
                      acc: AccuracyBudget = DEFAULT_BUDGET
                      ) -> tuple[float, float]:
    """One-sided derivatives of the boundary part at ``tc`` (T_C), from a
    Chebyshev interpolant per side: the cross-check of the ``jump`` family
    of :func:`bosegas.oracles.run_suite`.

    Each side samples the boundary part itself at ``_JUMP_POINTS``
    Chebyshev-Lobatto points: on the condensation boundary (a = m) over
    [T_C - 0.01 T_C, T_C], and along the solved mu(T) over [T_C, T_C + h],
    so it shares nothing with the closed form but T_C and the occupation
    kernel.  Above T_C, sqrt(gap) grows like sqrt(T - T_C) except inside
    a layer of width delta* ~ (9 / 2 pi^2) m^2 / T_C, where it is linear
    in T - T_C; the interpolant must sit well inside that layer to see
    the one-sided slope: h = min(0.01 T_C, 0.03 delta*).  T_C is a node
    of both sides, taken at a = m.  The relativistic gas points are solved
    in one batch at a 3e-13 residual, and every point is reported in one
    more; the NR boundary part is closed form on both sides.

    The slope at T_C is the derivative of the interpolant at that end, in
    barycentric form (Berrut & Trefethen, SIAM Rev. 46 (2004) 501): with
    the Lobatto weights w_j = (-1)^j, halved at both ends, it is
    sum_j (w_j / w_0) (f_j - f_0) / (T_C - T_j).
    """
    m = params.mass
    rho_abs = abs(charge.density)
    coeff = math.pi / 6.0 * geometry.two_volume
    last = _JUMP_POINTS - 1
    # (1 - x_j) / 2 at the Lobatto points x_j = cos(j pi / last): 0 at T_C,
    # 1 at the far end of the interval.
    steps = [math.sin(0.5 * math.pi * j / last) ** 2
             for j in range(_JUMP_POINTS)]
    below = [tc - 0.01 * tc * s for s in steps]
    if _resolve_regime(charge, m) is Regime.NON_RELATIVISTIC:
        above = [tc + 0.01 * tc * s for s in steps]
        f_below = [coeff / m * (m * t / (2.0 * math.pi)) ** 1.5 * _ZETA_3_2
                   for t in below]
        f_above = f_below[:1] + [coeff / m * rho_abs] * last
    else:
        tight = _jump_budget(acc)
        delta_star = 4.5 * m * m / (math.pi ** 2 * tc)
        h = min(0.01 * tc, 0.03 * delta_star)
        above = [tc + h * s for s in steps]
        gas = _solve_rel_rows(above[1:], rho_abs, m, tight, 3e-13)
        for row in gas:
            if isinstance(row, Exception):
                raise row
        values = _occupation_rows(3, m, below + above[1:],
                                  [m] * _JUMP_POINTS + [row[1] for row in gas],
                                  _boundary_charged, tight)
        for value in values:
            if isinstance(value, Exception):
                raise value
        f_below = [coeff * v for v in values[:_JUMP_POINTS]]
        f_above = f_below[:1] + [coeff * v for v in values[_JUMP_POINTS:]]

    def endpoint_slope(ts: list, fs: list) -> float:
        return float(sum((-1.0) ** j * (1.0 if j == last else 2.0)
                         * (fs[j] - fs[0]) / (ts[0] - ts[j])
                         for j in range(1, _JUMP_POINTS)))

    return endpoint_slope(below, f_below), endpoint_slope(above, f_above)
