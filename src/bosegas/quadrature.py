r"""Radial momentum integrals and bilateral (two-sided) lattice sums.

``integrate_radial`` evaluates

.. math::

    \frac{\Omega_D}{(2\pi)^D} \int_0^\infty f(p)\, p^{D-1}\, dp,
    \qquad \Omega_D = \frac{2\pi^{D/2}}{\Gamma(D/2)},

i.e. a full isotropic ``D``-dimensional momentum integral reduced to its
radial profile, with the angular factor applied by the engine.  The domain
is split at caller-declared breakpoints (integrable endpoint singularities
are fine because the Gauss-Kronrod rule is open), and the semi-infinite
tail is mapped to the unit interval by :math:`p = p_\text{last} -
s\,\ln u` with a caller-tunable scale ``s`` (at least twice the tail's
decay length; see ``RadialIntegralSpec.tail_scale``).

``sum_bilateral`` evaluates :math:`\sum_{k=-\infty}^{\infty} g(k)` by direct
symmetric summation plus an Euler-Maclaurin midpoint tail correction, so
power-law tails (down to the contractual :math:`1/k^2`) converge without
astronomically many terms.  The tail correction evaluates the summand at
non-integer arguments; physical summands are analytic in the index, which
makes that well defined.

Both drivers are deterministic: same inputs, same float operations, same
result bytes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, QuadratureError
from .specfun import AccuracyBudget, DEFAULT_BUDGET

__all__ = ["RadialIntegralSpec", "integrate_radial", "sum_bilateral"]

# 15-point Kronrod nodes (positive half) and weights; 7-point Gauss weights.
_XGK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_XGK = np.array([-v for v in _XGK_HALF[:7]] + [0.0]
                + [v for v in reversed(_XGK_HALF[:7])])
_WGK = np.array(list(_WGK_HALF[:7]) + [_WGK_HALF[7]]
                + list(reversed(_WGK_HALF[:7])))
_WG15 = np.zeros(15)
_WG15[1:14:2] = list(_WG_HALF[:3]) + [_WG_HALF[3]] + list(reversed(_WG_HALF[:3]))

_TINY_TOTAL = 1e-300
_MIN_PANEL_FACTOR = 50.0   # panels narrower than ~50 ulp are not split further


def _solid_angle(dimension: int) -> float:
    """Omega_D / (2 pi)^D for D in {1, 2, 3, 4}."""
    omega = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi,
             4: 2.0 * math.pi ** 2}[dimension]
    return omega / (2.0 * math.pi) ** dimension


class _VectorizedCallable:
    """Adapter calling ``f`` on arrays, falling back to per-point calls."""

    def __init__(self, f: Callable):
        self._f = f
        self._mode = "unknown"

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        if self._mode != "scalar":
            try:
                out = np.asarray(self._f(xs), dtype=float)
                if out.shape == xs.shape:
                    self._mode = "vector"
                    return out
                if out.shape == ():
                    self._mode = "vector"
                    return np.full_like(xs, float(out))
            except (TypeError, ValueError, IndexError):
                pass
            self._mode = "scalar"
        return np.array([float(self._f(float(x))) for x in xs])


def _gk15(f: _VectorizedCallable, a: float, b: float,
          where: str) -> tuple[float, float]:
    """One Gauss7/Kronrod15 panel: returns (integral, error estimate)."""
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    xs = center + half * _XGK
    ys = f(xs)
    if not np.all(np.isfinite(ys)):
        bad = xs[~np.isfinite(ys)][0]
        raise ValueError(
            f"integrand returned a non-finite value at {where} = {bad!r}")
    resk = float(_WGK @ ys)
    resg = float(_WG15 @ ys)
    value = resk * half
    mean = resk * 0.5
    resasc = float(_WGK @ np.abs(ys - mean)) * abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return value, err


_Panel = tuple[_VectorizedCallable, float, float]


def _adaptive(panels: Sequence[_Panel], acc: AccuracyBudget,
              where: str) -> tuple[float, float]:
    """Globally adaptive GK15 over initial (integrand, lo, hi) panels.

    The panels may carry different integrands (finite-range pieces and a
    mapped tail share one error budget).  Returns (value, error estimate);
    raises QuadratureError if the split budget runs out above tolerance,
    with the partial value and its relative error estimate.
    """
    heap: list = []            # (-err, seq, f, a, b, value, err)
    seq = 0
    val_sum = 0.0
    err_sum = 0.0
    for f, a, b in panels:
        v, e = _gk15(f, a, b, where)
        heapq.heappush(heap, (-e, seq, f, a, b, v, e))
        seq += 1
        val_sum += v
        err_sum += e

    frozen_val = 0.0
    frozen_err = 0.0
    splits = 0
    while True:
        if splits % 256 == 0:  # periodic exact resync of running totals
            val_sum = math.fsum(item[5] for item in heap)
            err_sum = math.fsum(item[6] for item in heap)
        total_val = frozen_val + val_sum
        total_err = frozen_err + err_sum
        target = max(acc.relative_tolerance * abs(total_val), _TINY_TOTAL)
        if total_err <= target:
            return total_val, total_err
        if not heap or splits >= acc.max_subdivisions:
            # Both printed numbers are relative to |total_val|, as is
            # ``achieved``.
            norm = max(abs(total_val), _TINY_TOTAL)
            cause = ("stalled on unsplittable panels" if not heap else
                     f"needed more than {acc.max_subdivisions} subdivisions")
            raise QuadratureError(
                f"quadrature {cause} at {where}; achieved relative error "
                f"{total_err / norm:.3e} vs target {target / norm:.3e}",
                estimate=total_val, achieved=total_err / norm)
        _, _, f, a, b, v, e = heapq.heappop(heap)
        val_sum -= v
        err_sum -= e
        width_floor = max(
            _MIN_PANEL_FACTOR * np.finfo(float).eps * max(abs(a), abs(b)),
            1e-320)
        if b - a <= width_floor:
            frozen_val += v     # cannot refine further; keep as-is
            frozen_err += e
            continue
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            v2, e2 = _gk15(f, lo, hi, where)
            heapq.heappush(heap, (-e2, seq, f, lo, hi, v2, e2))
            seq += 1
            val_sum += v2
            err_sum += e2
        splits += 1


@dataclass(frozen=True)
class RadialIntegralSpec:
    """Description of one isotropic radial momentum integral.

    Attributes
    ----------
    dimension : int
        Spatial dimension D in {1, 2, 3, 4}; the engine supplies the
        angular factor Omega_D / (2 pi)^D and the measure p^(D-1).
    integrand : callable
        Radial profile f(p).  May accept numpy arrays (preferred) or
        scalars; must be finite on (0, inf).
    singular_points : tuple of float
        Nonnegative radii where f has integrable structure; the domain is
        split there and the open rule never samples them exactly.
    accuracy : AccuracyBudget
        Relative tolerance and subdivision cap.
    tail_scale : float
        Scale s of the tail map p = p_last - s ln u; default 1.0.  Choose
        s of at least twice the integrand's large-p decay length L (for
        thermal occupations L = max(T, sqrt(m T))).  A tail e^(-p/L) maps
        to u^(s/L - 1) (p_last - s ln u)^(D-1): at s = 2 L that vanishes
        at u = 0, while s = L leaves a ln^(D-1) u endpoint singularity that
        the adaptive rule can only bisect towards, spending most of its
        panels next to u = 0.
    """

    dimension: int
    integrand: Callable
    singular_points: tuple[float, ...] = ()
    accuracy: AccuracyBudget = DEFAULT_BUDGET
    tail_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2, 3, 4):
            raise ValueError(
                f"dimension must be one of 1, 2, 3, 4; got {self.dimension!r}")
        pts = tuple(float(p) for p in self.singular_points)
        if any(not math.isfinite(p) or p < 0.0 for p in pts):
            raise ValueError(
                f"singular_points must be finite and nonnegative: {pts!r}")
        if list(pts) != sorted(pts):
            raise ValueError(f"singular_points must be sorted: {pts!r}")
        object.__setattr__(self, "singular_points", pts)
        if not (math.isfinite(self.tail_scale) and self.tail_scale > 0.0):
            raise ValueError(f"tail_scale must be positive: {self.tail_scale!r}")


def integrate_radial(spec: RadialIntegralSpec) -> float:
    """Evaluate the radial integral described by ``spec``; see module doc."""
    value, _ = _integrate_radial_report(spec)
    return value


def _integrate_radial_report(spec: RadialIntegralSpec) -> tuple[float, float]:
    """integrate_radial plus the achieved absolute error estimate."""
    dim = spec.dimension
    f = _VectorizedCallable(spec.integrand)
    scale = spec.tail_scale

    breaks = sorted({0.0, *spec.singular_points})
    p_last = breaks[-1]

    def radial(ps: np.ndarray) -> np.ndarray:
        return f(ps) * ps ** (dim - 1)

    def tail(us: np.ndarray) -> np.ndarray:
        ps = p_last - scale * np.log(us)
        return f(ps) * ps ** (dim - 1) * (scale / us)

    panels: list[_Panel] = []
    vec_radial = _VectorizedCallable(radial)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        panels.append((vec_radial, lo, hi))
    panels.append((_VectorizedCallable(tail), 0.0, 1.0))

    angular = _solid_angle(dim)
    try:
        value, err = _adaptive(panels, spec.accuracy, "p")
    except QuadratureError as exc:
        exc.estimate *= angular     # the partial value of the full integral
        raise
    return angular * value, angular * err


_V_MIN_TAIL = 1e-12   # truncates the mapped tail at t = a / _V_MIN_TAIL


def _em_tail_correction(g: Callable[[float], float], a: float,
                        acc: AccuracyBudget) -> float:
    """Estimate sum over integers k > a of g(k), for half-integer ``a``.

    Euler-Maclaurin midpoint form: integral over [a, inf) plus
    g'(a)/24 - 7 g'''(a)/5760, the derivatives taken with integer-offset
    central differences so only lattice values of g are needed.  The
    integral uses the algebraic map t = a / v over v in [1e-12, 1]; the
    truncation discards at most a ~1e-12 relative slice for a 1/k^2 tail
    (below the tail tolerance) and keeps t finite even when the summand
    decays too slowly, so divergent sums surface as the documented
    non-convergence error from the checkpoint loop rather than overflow.
    """
    def mapped(vs: np.ndarray) -> np.ndarray:
        ts = a / vs
        return np.array([g(float(t)) for t in ts]) * a / vs ** 2

    tail_acc = AccuracyBudget(
        relative_tolerance=min(1e-3, 10.0 * acc.relative_tolerance),
        max_terms=acc.max_terms,
        max_subdivisions=max(64, acc.max_subdivisions // 4))
    integral, _ = _adaptive([(_VectorizedCallable(mapped), _V_MIN_TAIL, 1.0)],
                            tail_acc, "v(sum tail)")
    k = a - 0.5     # last summed integer
    gp = g(k + 1.0) - g(k)
    gppp = g(k + 2.0) - 3.0 * g(k + 1.0) + 3.0 * g(k) - g(k - 1.0)
    return integral + gp / 24.0 - 7.0 * gppp / 5760.0


def sum_bilateral(term: Callable[[float], float],
                  acc: AccuracyBudget = DEFAULT_BUDGET) -> float:
    """Sum ``term(k)`` over all integers ``k`` from -inf to inf.

    Direct symmetric summation over growing blocks, with an
    Euler-Maclaurin midpoint tail estimate added on each side at every
    checkpoint; converged when two successive checkpoint totals agree to
    the requested relative tolerance.  The summand must decay at least
    like 1/k^2 and accept non-integer arguments for the tail estimate.
    """
    direct = term(0.0)
    k_max = max(16, acc.max_terms // 2)
    prev_candidate = None
    k_checkpoint = 16
    k = 0
    while k < k_max:
        while k < k_checkpoint:
            k += 1
            direct += term(float(k)) + term(float(-k))
        a = k + 0.5
        corr = (_em_tail_correction(lambda t: term(t), a, acc)
                + _em_tail_correction(lambda t: term(-t), a, acc))
        candidate = direct + corr
        if prev_candidate is not None:
            tol = acc.relative_tolerance * max(abs(candidate), _TINY_TOTAL)
            if abs(candidate - prev_candidate) <= tol:
                return candidate
        prev_candidate = candidate
        k_checkpoint *= 2
    raise ConvergenceError(
        f"bilateral sum did not settle within {k_max} terms per side",
        estimate=prev_candidate if prev_candidate is not None else direct)
