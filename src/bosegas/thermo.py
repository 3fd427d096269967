r"""Entropy decomposition of a free Bose field split across a flat boundary.

For a field of mass :math:`m` (dispersion :math:`\omega = \sqrt{p^2+m^2}`)
at inverse temperature :math:`\beta`, the entropy of a half-space factors
into three pieces which this module computes and reports separately:

* ``zero_t_part``: the ultraviolet-cut vacuum entanglement across the
  boundary,

  .. math::

     S_0 = \frac{1}{12}\,\frac{A}{(4\pi)^{(D-1)/2}}\, m^{D-1}\,
           \Gamma\!\left(-\tfrac{D-1}{2},\, m^2/\Lambda^2\right),

  per neutral degree of freedom (doubled for a charged field), with
  ``A`` the boundary area and :math:`\Lambda` the momentum cutoff.
* ``boundary_thermal_part``: the finite-temperature area-law correction

  .. math::

     S_b = \frac{\pi}{3}\, A \int \frac{d^Dp}{(2\pi)^D}\,
           \frac{n(\omega)}{\omega},

  with :math:`n` the Bose occupation; for a charged field at chemical
  potential :math:`\mu` the occupation is the particle/antiparticle sum
  :math:`n(\omega-\mu) + n(\omega+\mu)`.
* ``extensive_thermal_part``: minus one half of the ordinary extensive
  thermal entropy of the subsystem volume, the piece that cancels between
  the subsystem entropies and the global one.

``mutual_information`` is the ultraviolet-finite-per-area combination
``zero_t_part + boundary_thermal_part``; ``geometric_entropy`` adds the
extensive piece.  A Matsubara-sum alternate route for the boundary part
and the leading high-temperature expansion are provided for cross-checks.
All entropies are in nats; units are natural (hbar = c = kB = 1).
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quadrature import (RadialIntegralSpec, _integrate_radial_rows,
                         integrate_radial, sum_bilateral)
from .specfun import EULER_GAMMA, AccuracyBudget, DEFAULT_BUDGET, gamma_upper

__all__ = [
    "EntropyReport",
    "FieldKind",
    "Geometry",
    "ModelParams",
    "ThermalPoint",
    "boundary_thermal_matsubara",
    "dispersion",
    "high_t_expansion",
    "mutual_info_charged",
    "mutual_info_neutral",
    "thermal_entropy",
    "zero_t_entanglement",
]

_EXP_BIG = 690.0       # e^x representable safely below this


class FieldKind(enum.Enum):
    """Field content: one real scalar, or a complex (charged) scalar."""

    NEUTRAL_REAL = "neutral"
    CHARGED_COMPLEX = "charged"


@dataclass(frozen=True)
class ModelParams:
    """Field and regulator parameters.

    Attributes
    ----------
    mass : float
        Field mass m > 0 (use a small positive mass for massless limits).
    dimension : int
        Spatial dimension D, one of 1, 2, 3.
    uv_cutoff : float
        Momentum cutoff Lambda > m entering only through the regulated
        vacuum piece Gamma(a, m^2/Lambda^2).
    field_kind : FieldKind
        Neutral real scalar or charged complex scalar.
    """

    mass: float
    dimension: int
    uv_cutoff: float
    field_kind: FieldKind = FieldKind.NEUTRAL_REAL

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ValueError(f"mass must be positive, got {self.mass!r}")
        if self.dimension not in (1, 2, 3):
            raise ValueError(
                f"dimension must be 1, 2, or 3, got {self.dimension!r}")
        if not (math.isfinite(self.uv_cutoff) and self.uv_cutoff > self.mass):
            raise ValueError(
                f"uv_cutoff must exceed the mass, got {self.uv_cutoff!r}")
        if not isinstance(self.field_kind, FieldKind):
            raise ValueError(f"field_kind must be a FieldKind, got "
                             f"{self.field_kind!r}")


@dataclass(frozen=True)
class Geometry:
    """Sizes of the bipartitioned system, in natural units.

    Attributes
    ----------
    boundary_area : float
        (D-1)-volume of the dividing surface.
    subsystem_volume : float
        D-volume of the subsystem carrying the extensive entropy.
    two_volume : float
        The transverse two-volume entering fixed-charge mutual-information
        normalizations in D = 3.
    """

    boundary_area: float = 1.0
    subsystem_volume: float = 1.0
    two_volume: float = 1.0

    def __post_init__(self) -> None:
        for name in ("boundary_area", "subsystem_volume", "two_volume"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive, got {v!r}")


@dataclass(frozen=True)
class ThermalPoint:
    """One thermodynamic evaluation point.

    Attributes
    ----------
    temperature : float
        T > 0.
    chemical_potential : float
        mu; must satisfy |mu| <= mass for the charged field (checked at the
        operations, which know the model), and exactly 0 for the neutral.
    """

    temperature: float
    chemical_potential: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError(
                f"temperature must be positive, got {self.temperature!r}")
        if not math.isfinite(self.chemical_potential):
            raise ValueError(f"chemical_potential must be finite, got "
                             f"{self.chemical_potential!r}")


@dataclass(frozen=True)
class EntropyReport:
    """Additive decomposition of the half-space entropy at one point.

    ``geometric_entropy = zero_t_part + boundary_thermal_part +
    extensive_thermal_part`` and ``mutual_information = zero_t_part +
    boundary_thermal_part`` hold by construction.
    """

    zero_t_part: float               # cutoff-regulated vacuum entanglement
    boundary_thermal_part: float     # finite-T area-law correction, >= 0
    extensive_thermal_part: float    # -(1/2) * extensive thermal entropy
    geometric_entropy: float         # sum of the three parts
    mutual_information: float        # vacuum + boundary parts only


def dispersion(params: ModelParams, p):
    """Relativistic dispersion ``omega(p) = sqrt(p^2 + m^2)``.

    Accepts scalars or numpy arrays.
    """
    return np.sqrt(np.asarray(p, dtype=float) ** 2 + params.mass ** 2)


# ----------------------------------------------------------------------
# Stable occupation helpers (vectorized)
# ----------------------------------------------------------------------

def _bose(x: np.ndarray) -> np.ndarray:
    """Bose occupation 1 / (e^x - 1) for x > 0.

    Exactly 0 from x = 690 up, where the input to expm1 is clamped so that
    it cannot overflow.
    """
    x = np.asarray(x, dtype=float)
    return np.where(x < _EXP_BIG, 1.0 / np.expm1(np.minimum(x, _EXP_BIG)),
                    0.0)


def _entropy_weight(x: np.ndarray) -> np.ndarray:
    """x n(x) - ln(1 - e^-x), the entropy density weight per mode.

    Written as x n + ln(1 + n) with n = 1/(e^x - 1): both terms stay
    finite and accurate down to x -> 0, where ln(1 - e^-x) loses digits.
    """
    x = np.asarray(x, dtype=float)
    xo = np.minimum(x, _EXP_BIG)
    n = 1.0 / np.expm1(xo)
    return np.where(x < _EXP_BIG, xo * n + np.log1p(n), 0.0)


def _gap_frequencies(mass: float, a: float, g: float, p: np.ndarray):
    """Return (omega, omega - a) with the difference cancellation-free.

    For ``a`` close to the mass ``omega - a`` loses all precision if formed
    directly; ``(p^2 + g (m + a)) / (omega + a)`` with the exact gap
    ``g = m - a`` from the caller does not.  At a float ``a = 0`` the lower
    branch is omega itself.  ``a`` and ``g`` may be arrays that broadcast
    against ``p`` (one pair per row of a batch).
    """
    p2 = p * p
    omega = np.sqrt(p2 + mass * mass)
    if not isinstance(a, np.ndarray) and a == 0.0:
        return omega, omega
    below = (p2 + g * (mass + a)) / (omega + a)
    return omega, below


def _thermal_grid(mass: float, temperature: float, a: float, g: float
                  ) -> tuple[tuple[float, ...], float]:
    """Breakpoints and tail scale for occupation-weighted integrals.

    An occupation n(beta (omega - a)) bends at the knee p0 = sqrt(g (m + a))
    where the gap g = m - a stops dominating omega - a (p0 = m at a = 0,
    and at g = 0 too), and decays like e^(-p/L) beyond L = max(T, sqrt(m T)).
    Near T_C the knee sits many decades below L, and the integrand
    changes shape in every decade between them, so there is one
    breakpoint per decade, p0 * 10^k for every k >= 0 with p0 * 10^k < L.

    The tail starts at the last breakpoint (at 0 when none lies below L)
    with scale s = 2 L.  The map p = p_last - s ln u turns e^(-p/L) into
    u^(s/L - 1) times the power of ln u from the measure: with s = 2 L
    that is u ln^2 u in D = 3, which vanishes at u = 0, while s = L
    leaves a ln^2 u endpoint singularity that the adaptive rule can only
    bisect towards.
    """
    decay = max(temperature, math.sqrt(mass * temperature))
    p0 = math.sqrt(g * (mass + a)) or mass
    pts = []
    while p0 < decay:
        pts.append(p0)
        p0 *= 10.0
    return tuple(pts), 2.0 * decay


def _occupation_spec(dimension: int, mass: float, temperature: float,
                     a: float, g: float, moment: Callable,
                     acc: AccuracyBudget) -> RadialIntegralSpec:
    """int d^Dp/(2pi)^D moment(beta (omega - a), beta (omega + a), omega).

    ``a = |mu|`` in [0, m] and its gap ``g = m - a``, each exact from the
    caller's unknown; the first argument is formed cancellation-free (see
    ``_gap_frequencies``).  Every occupation integral is built here.
    """
    beta = 1.0 / temperature

    def integrand(p: np.ndarray) -> np.ndarray:
        omega, below = _gap_frequencies(mass, a, g, p)
        return moment(beta * below, beta * (omega + a), omega)

    pts, scale = _thermal_grid(mass, temperature, a, g)
    return RadialIntegralSpec(dimension, integrand, singular_points=pts,
                              accuracy=acc, tail_scale=scale)


def _occupation_integral(dimension: int, mass: float, temperature: float,
                         a: float, g: float, moment: Callable,
                         acc: AccuracyBudget) -> float:
    """The occupation integral of ``_occupation_spec``, value only."""
    return integrate_radial(_occupation_spec(dimension, mass, temperature,
                                             a, g, moment, acc))


def _occupation_rows(dimension: int, mass: float,
                     temperatures: Sequence[float], mus: Sequence[float],
                     gaps: Sequence[float], moment: Callable,
                     acc: AccuracyBudget) -> list:
    """``_occupation_integral`` at one (T, a = |mu|, g) per row, all rows
    refined in lockstep by ``quadrature._integrate_radial_rows``; each row
    holds its value or the exception it raised."""
    beta = 1.0 / np.asarray(temperatures, dtype=float)
    abs_mu = np.asarray(mus, dtype=float)
    gap = np.asarray(gaps, dtype=float)

    def integrand(p: np.ndarray, rows: np.ndarray) -> np.ndarray:
        a, b = abs_mu[rows], beta[rows]
        omega, below = _gap_frequencies(mass, a, gap[rows], p)
        return moment(b * below, b * (omega + a), omega)

    grids = [_thermal_grid(mass, t, a, g)
             for t, a, g in zip(temperatures, mus, gaps)]
    return _integrate_radial_rows(dimension, integrand, grids, acc)


def _boundary_charged(x_minus, x_plus, omega):
    """Boundary moment [n(omega - a) + n(omega + a)] / omega."""
    return (_bose(x_minus) + _bose(x_plus)) / omega


def _entropy_charged(x_minus, x_plus, _omega):
    """Entropy-density moment of the particle and antiparticle modes."""
    return _entropy_weight(x_minus) + _entropy_weight(x_plus)


# Field kind -> (boundary moment, entropy moment).  The neutral field is
# one species at a = 0, where x_minus is beta omega.
_MOMENTS = {
    FieldKind.NEUTRAL_REAL: (lambda x, _x_plus, omega: _bose(x) / omega,
                             lambda x, _x_plus, _omega: _entropy_weight(x)),
    FieldKind.CHARGED_COMPLEX: (_boundary_charged, _entropy_charged),
}


def _validate_point(params: ModelParams, point: ThermalPoint) -> float:
    """Check |mu| against the model; return a = |mu|."""
    a = abs(point.chemical_potential)
    if a > params.mass:
        raise ValueError(
            f"|chemical_potential| = {a!r} exceeds the mass {params.mass!r}")
    if a == params.mass and params.dimension != 3:
        raise ValueError(
            "the critical point mu = +/- mass is integrable only in D = 3; "
            f"got D = {params.dimension}")
    return a


# ----------------------------------------------------------------------
# Entropy pieces
# ----------------------------------------------------------------------

def thermal_entropy(params: ModelParams, geometry: Geometry,
                    point: ThermalPoint,
                    acc: AccuracyBudget = DEFAULT_BUDGET) -> float:
    """Extensive thermal entropy of the subsystem volume at mu = 0.

    The standard positive grand-canonical entropy; the charged field
    carries twice the neutral value.  Massless checks: (2 pi^2 / 45) V T^3
    in D = 3 and (pi / 3) V T in D = 1.
    """
    if point.chemical_potential != 0.0:
        raise ValueError("thermal_entropy is defined at mu = 0; "
                         "use the charged-field report for mu != 0")
    return geometry.subsystem_volume * _occupation_integral(
        params.dimension, params.mass, point.temperature, 0.0, params.mass,
        _MOMENTS[params.field_kind][1], acc)


def zero_t_entanglement(params: ModelParams, geometry: Geometry) -> float:
    """Cutoff-regulated vacuum entanglement across the boundary.

    ``(1/12) A (4 pi)^(-(D-1)/2) m^(D-1) Gamma(-(D-1)/2, m^2 / Lambda^2)``
    per neutral degree of freedom; the charged field doubles it.
    """
    m = params.mass
    d = params.dimension
    x = (m / params.uv_cutoff) ** 2
    coeff = (geometry.boundary_area / 12.0
             / (4.0 * math.pi) ** (0.5 * (d - 1)))
    value = coeff * m ** (d - 1) * gamma_upper(-0.5 * (d - 1), x)
    if params.field_kind is FieldKind.CHARGED_COMPLEX:
        value *= 2.0
    return value


def _entropy_report(zero_t: float, boundary: float,
                    extensive: float) -> EntropyReport:
    """The report with its two sums formed from the three parts."""
    return EntropyReport(
        zero_t_part=zero_t,
        boundary_thermal_part=boundary,
        extensive_thermal_part=extensive,
        geometric_entropy=zero_t + boundary + extensive,
        mutual_information=zero_t + boundary,
    )


def _assemble_report(params: ModelParams, geometry: Geometry,
                     point: ThermalPoint, a: float,
                     acc: AccuracyBudget) -> EntropyReport:
    kind = params.field_kind
    # At a = 0 the two charged species share one occupation: integrate it
    # once and double it, which gives the same bits as the charged moment.
    species = 1.0
    if kind is FieldKind.CHARGED_COMPLEX and a == 0.0:
        kind, species = FieldKind.NEUTRAL_REAL, 2.0
    boundary_moment, entropy_moment = _MOMENTS[kind]
    args = (params.dimension, params.mass, point.temperature, a,
            params.mass - a)
    return _entropy_report(
        zero_t_entanglement(params, geometry),
        (math.pi / 3.0) * geometry.boundary_area
        * (species * _occupation_integral(*args, boundary_moment, acc)),
        -0.5 * geometry.subsystem_volume
        * (species * _occupation_integral(*args, entropy_moment, acc)))


def mutual_info_neutral(params: ModelParams, geometry: Geometry,
                        point: ThermalPoint,
                        acc: AccuracyBudget = DEFAULT_BUDGET) -> EntropyReport:
    """Entropy report for the neutral real scalar (mu is identically 0)."""
    if params.field_kind is not FieldKind.NEUTRAL_REAL:
        raise ValueError("mutual_info_neutral needs field_kind NEUTRAL_REAL")
    if point.chemical_potential != 0.0:
        raise ValueError("the neutral field carries no chemical potential; "
                         "set it to 0")
    return _assemble_report(params, geometry, point, 0.0, acc)


def mutual_info_charged(params: ModelParams, geometry: Geometry,
                        point: ThermalPoint,
                        acc: AccuracyBudget = DEFAULT_BUDGET) -> EntropyReport:
    """Entropy report for the charged scalar at chemical potential mu.

    ``|mu| < m`` anywhere; the critical value ``|mu| = m`` stays integrable
    only in D = 3 and is rejected otherwise.  At ``mu = 0`` every part is
    exactly twice the neutral-field value.
    """
    if params.field_kind is not FieldKind.CHARGED_COMPLEX:
        raise ValueError("mutual_info_charged needs field_kind CHARGED_COMPLEX")
    a = _validate_point(params, point)
    return _assemble_report(params, geometry, point, a, acc)


# ----------------------------------------------------------------------
# Cross-check routes
# ----------------------------------------------------------------------

def boundary_thermal_matsubara(params: ModelParams, geometry: Geometry,
                               point: ThermalPoint,
                               acc: AccuracyBudget | None = None) -> float:
    r"""Boundary thermal part via a Matsubara frequency sum.

    Uses
    :math:`\sum_k \mathrm{Re}\,[(\omega_k + i\mu)^2 + \omega^2]^{-1}
    - \beta/(2\omega) = (\beta/2\omega)\,[n(\omega-\mu) + n(\omega+\mu)]`
    with :math:`\omega_k = 2\pi k/\beta`, so

    .. math::

       S_b = \frac{2\pi}{3\beta}\, A \int \frac{d^Dp}{(2\pi)^D}
             \Big[\sum_k \mathrm{Re}\,\frac{1}{(\omega_k+i\mu)^2+\omega^2}
             - \frac{\beta}{2\omega}\Big]

    for the charged field; the neutral field is half of this at mu = 0.
    Each integrand call of the radial quadrature runs one frequency sum
    over all of its momentum nodes (one ``sum_bilateral`` call with an
    (nk, nodes) summand), and every node's sum settles on its own, so its
    value does not depend on the nodes it shares the call with.  Intended
    for validation: 8-20 ms per point for m = 1, T = 0.8-3, D = 1-3, about
    2.5-6x the cost of a whole direct-route report (2-CPU Xeon host).
    """
    if acc is None:
        acc = AccuracyBudget(relative_tolerance=1e-9, max_terms=200_000,
                             max_subdivisions=4000)
    a = _validate_point(params, point)
    beta = 1.0 / point.temperature
    m = params.mass
    two_pi_over_beta = 2.0 * math.pi / beta
    sum_acc = AccuracyBudget(relative_tolerance=0.05 * acc.relative_tolerance,
                             max_terms=acc.max_terms,
                             max_subdivisions=acc.max_subdivisions)

    def summed(ps: np.ndarray) -> np.ndarray:
        omega2 = ps * ps + m * m

        def term(k: np.ndarray) -> np.ndarray:   # (nk, 1) -> (nk, len(ps))
            wk = two_pi_over_beta * k
            re_den = omega2 + wk * wk - a * a
            return re_den / (re_den * re_den + 4.0 * wk * wk * a * a)

        return sum_bilateral(term, sum_acc) - 0.5 * beta / np.sqrt(omega2)

    pts, scale = _thermal_grid(m, point.temperature, a, m - a)
    spec = RadialIntegralSpec(params.dimension, summed,
                              singular_points=pts, accuracy=acc,
                              tail_scale=scale)
    value = (two_pi_over_beta / 3.0) * geometry.boundary_area \
        * integrate_radial(spec)
    if params.field_kind is FieldKind.NEUTRAL_REAL:
        value *= 0.5
    return value


def high_t_expansion(point: ThermalPoint, mass: float) -> float:
    r"""High-temperature expansion of the charged occupation integral.

    Approximates :math:`J = \int \frac{d^3p}{(2\pi)^3}\,
    \frac{n(\omega-\mu)+n(\omega+\mu)}{\omega}` by

    .. math::

       J \approx \frac{T^2}{6} - \frac{T}{2\pi}\sqrt{m^2-\mu^2}
       - \frac{m^2}{4\pi^2} \ln\frac{C m}{T} + \frac{m^2-\mu^2}{4\pi^2},
       \qquad C = \frac{e^{\gamma_E - 1}}{4\pi}.

    Warns when ``T < 5 m`` where the dropped terms are no longer small.
    """
    t = point.temperature
    mu = point.chemical_potential
    if not (math.isfinite(mass) and mass > 0.0):
        raise ValueError(f"mass must be positive, got {mass!r}")
    if abs(mu) > mass:
        raise ValueError(f"|mu| = {abs(mu)!r} exceeds the mass {mass!r}")
    if t < 5.0 * mass:
        warnings.warn("high_t_expansion used below T = 5 m; dropped terms "
                      "are not negligible there", stacklevel=2)
    s2 = (mass - mu) * (mass + mu)
    c = math.exp(EULER_GAMMA - 1.0) / (4.0 * math.pi)
    return (t * t / 6.0
            - t * math.sqrt(s2) / (2.0 * math.pi)
            - mass * mass / (4.0 * math.pi ** 2) * math.log(c * mass / t)
            + s2 / (4.0 * math.pi ** 2))
