r"""Scalar special functions needed by the thermal field integrals.

Everything here is pure, deterministic float arithmetic, on stdlib floats
except for one private helper that fills a numpy array:

* ``polylog(s, z)``  for :math:`z \in [0, 1]`, via the defining power series
  away from the endpoint and the Robinson (Hurwitz-series) expansion in
  :math:`\delta = -\ln z` near it.
* ``zeta(s)``        for :math:`s > 1`, Euler-Maclaurin tail summation.
* ``gamma_upper(a, x)`` for :math:`a \le 1`, :math:`x > 0`, by downward
  recurrence from closed-form seeds on the integer and half-integer
  lattices, and by Lentz continued fraction or lower-series complement for
  generic ``a``.  This is the regulator shape used for ultraviolet-cut
  vacuum pieces, so small ``x`` must be exact.
* ``bessel_i`` / ``bessel_i_scaled`` (modified, first kind) by positive-term
  series pivoted at the largest term, usable to ``x = 1e4`` in scaled form.
  The private ``_bessel_i_scaled_ladder`` gives a whole ladder of orders
  ``f, f+1, ...`` at many arguments from one such series per argument and
  one downward ratio recurrence.
* ``bessel_j`` (first kind), as one rung of the private
  ``_bessel_j_ladder``, which gives ``J_{f+j}`` for every ``j < count`` at
  every argument of a table, with one of three branches per argument and
  order: for ``x <= 7`` the ascending series of all orders and arguments
  at once; for ``x >= 18`` and orders below ``x`` Hankel's large-argument
  expansion (DLMF 10.17(i)) for ``J_f`` and ``J_{f+1}``, then the upward
  recurrence, which is stable below the turning point ``nu = x``; and
  otherwise one Miller downward recurrence per argument with a
  series-identity normalizer, started 64 orders above ``max(x, count-1)``
  (clear of the turning point's Airy layer, since Miller now runs only
  where ``x < 18`` or ``x <= nu <= 256``).  Every branch is within 1e-14
  (absolute) of 30-digit references for ``x <= 1e4``, ``nu <= 256``.

All iteration caps raise :class:`~bosegas.errors.ConvergenceError` rather
than silently returning a stale partial sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "AccuracyBudget",
    "DEFAULT_BUDGET",
    "EULER_GAMMA",
    "bessel_i",
    "bessel_i_scaled",
    "bessel_j",
    "gamma_upper",
    "polylog",
    "zeta",
]

EULER_GAMMA = 0.5772156649015329

# Bernoulli numbers B_2, B_4, ..., B_16 for Euler-Maclaurin tails.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)

_MAX_SERIES_TERMS = 200_000
_LATTICE_TOL = 1e-12      # snap tolerance for integer / half-integer orders
_NU_MAX = 256.0           # Bessel order cap
_X_MAX = 1.0e4            # Bessel argument cap
_EXP_OVERFLOW = 709.0     # exp() overflows just above this


@dataclass(frozen=True)
class AccuracyBudget:
    """Requested accuracy and work caps for series and quadrature drivers.

    Attributes
    ----------
    relative_tolerance : float
        Target relative error, in (0, 1e-2).
    max_terms : int
        Cap on series terms or summand evaluations, at least 16.
    max_subdivisions : int
        Cap on adaptive quadrature panel splits, at least 1.
    """

    relative_tolerance: float = 1.0e-12
    max_terms: int = 100_000
    max_subdivisions: int = 4000

    def __post_init__(self) -> None:
        if not (0.0 < self.relative_tolerance < 1.0e-2):
            raise ValueError(
                f"relative_tolerance must lie in (0, 1e-2), got "
                f"{self.relative_tolerance!r}")
        if self.max_terms < 16:
            raise ValueError(f"max_terms must be >= 16, got {self.max_terms!r}")
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions!r}")


DEFAULT_BUDGET = AccuracyBudget()


# ----------------------------------------------------------------------
# Riemann zeta
# ----------------------------------------------------------------------

def _zeta_euler_maclaurin(s: float, n_direct: int = 24) -> float:
    """Euler-Maclaurin evaluation of zeta(s); accurate for s > -1, s != 1."""
    direct = math.fsum(k ** (-s) for k in range(1, n_direct))
    n = float(n_direct)
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** (-s)
    poch = 1.0              # (s)(s+1)...(s+2j-2), built incrementally
    fact = 1.0              # (2j)!
    corr = 0.0
    for j, b2j in enumerate(_BERNOULLI, start=1):
        if j == 1:
            poch = s
            fact = 2.0
        else:
            poch *= (s + 2.0 * j - 3.0) * (s + 2.0 * j - 2.0)
            fact *= (2.0 * j - 1.0) * (2.0 * j)
        corr += b2j / fact * poch * n ** (-s - 2.0 * j + 1.0)
    return direct + tail + corr


@functools.lru_cache(maxsize=256)
def _zeta_any(s: float) -> float:
    """zeta(s) for any real s != 1, via reflection when s is very negative.

    Memoised: the endpoint expansion of ``polylog`` asks for the same few
    ``zeta(s - k)`` on every call.
    """
    if s == 1.0:
        raise ValueError("zeta has a pole at s = 1")
    if s >= -0.5:
        return _zeta_euler_maclaurin(s)
    # Reflection: zeta(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1-s) zeta(1-s).
    return (2.0 ** s * math.pi ** (s - 1.0) * math.sin(0.5 * math.pi * s)
            * math.gamma(1.0 - s) * _zeta_euler_maclaurin(1.0 - s))


def zeta(s: float) -> float:
    """Riemann zeta function for real ``s > 1``.

    Parameters
    ----------
    s : float
        Argument, strictly greater than 1.

    Returns
    -------
    float
        ``zeta(s)`` to close to machine precision.
    """
    if not s > 1.0:
        raise ValueError(f"zeta requires s > 1, got s={s!r}")
    return _zeta_euler_maclaurin(s)


# ----------------------------------------------------------------------
# Polylogarithm on [0, 1]
# ----------------------------------------------------------------------

def _polylog_series(s: float, z: float, acc: AccuracyBudget) -> float:
    """Defining series sum_{k>=1} z^k / k^s, for z away from 1."""
    total = 0.0
    zk = 1.0
    for k in range(1, acc.max_terms + 1):
        zk *= z
        term = zk / float(k) ** s
        total += term
        if abs(term) <= 0.25 * acc.relative_tolerance * abs(total) * (1.0 - z):
            return total
    raise ConvergenceError(
        f"polylog series did not converge within {acc.max_terms} terms",
        estimate=total)


def _harmonic(n: int) -> float:
    return math.fsum(1.0 / k for k in range(1, n + 1))


def _polylog_robinson(s: float, delta: float, acc: AccuracyBudget) -> float:
    """Expansion of Li_s(e^-delta) around delta = 0.

    Non-integer s:  Gamma(1-s) delta^(s-1) + sum_k zeta(s-k) (-delta)^k / k!
    Integer  n>=2:  the k = n-1 term is replaced by
                    (-delta)^(n-1)/(n-1)! * (H_{n-1} - ln delta).
    """
    n = int(round(s))
    is_integer = abs(s - n) < 1e-9 and n >= 2
    if is_integer:
        lead = ((-delta) ** (n - 1) / math.factorial(n - 1)
                * (_harmonic(n - 1) - math.log(delta)))
    else:
        lead = math.gamma(1.0 - s) * delta ** (s - 1.0)
    total = lead
    term = 1.0              # (-delta)^k / k!
    small_streak = 0
    for k in range(0, 60):
        if k > 0:
            term *= -delta / k
        if is_integer and k == n - 1:
            continue
        contrib = _zeta_any(s - k) * term
        total += contrib
        if abs(contrib) <= 0.1 * acc.relative_tolerance * abs(total):
            small_streak += 1
            if small_streak >= 3:
                return total
        else:
            small_streak = 0
    return total


def polylog(s: float, z: float, acc: AccuracyBudget = DEFAULT_BUDGET) -> float:
    r"""Polylogarithm :math:`\mathrm{Li}_s(z)` for fugacity :math:`z\in[0,1]`.

    Parameters
    ----------
    s : float
        Order.  Any real order is accepted for ``z <= 0.9``; near the
        endpoint (``z > 0.9``) the order must be > 1 or an integer >= 2,
        which covers every Bose-gas use.
    z : float
        Argument in ``[0, 1]``.  ``z = 1`` requires ``s > 1`` and returns
        ``zeta(s)``.
    acc : AccuracyBudget
        Tolerance and term cap.

    Returns
    -------
    float
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"polylog requires z in [0, 1], got z={z!r}")
    if z == 0.0:
        return 0.0
    if z == 1.0:
        if not s > 1.0:
            raise ValueError(
                f"polylog(s, 1) diverges for s <= 1 (got s={s!r})")
        return _zeta_euler_maclaurin(s)
    if s == 1.0:
        return -math.log1p(-z)          # closed form -ln(1 - z)
    if z <= 0.9:
        return _polylog_series(s, z, acc)
    delta = -math.log(z)
    if s > 1.0 or (abs(s - round(s)) < 1e-9 and round(s) >= 2):
        return _polylog_robinson(s, delta, acc)
    raise ValueError(
        f"polylog near z = 1 needs order s > 1 or integer s >= 2, got s={s!r}")


# ----------------------------------------------------------------------
# Upper incomplete gamma, a <= 1
# ----------------------------------------------------------------------

def _lentz_gamma_cf(a: float, x: float) -> float:
    """Gamma(a, x) = e^{-x} x^a * CF, modified Lentz; needs x >= ~1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_SERIES_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if d == 0.0:
            d = tiny
        c = b + an / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return math.exp(-x + a * math.log(x)) * h
    raise ConvergenceError("gamma_upper continued fraction stalled")


def _e1(x: float) -> float:
    """Exponential integral E1(x) = Gamma(0, x), x > 0."""
    if x <= 1.5:
        total = -EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 200):
            term *= -x / k
            contrib = -term / k
            total += contrib
            if abs(contrib) < 1e-17 * max(abs(total), 1e-300):
                return total
        raise ConvergenceError("E1 series stalled")
    return _lentz_gamma_cf(0.0, x)


def _gamma_lower_series(a: float, x: float) -> float:
    """Lower gamma(a, x) by series, for x < a + 1.5 and non-integer a."""
    term = 1.0 / a
    total = term
    for k in range(1, _MAX_SERIES_TERMS):
        term *= x / (a + k)
        total += term
        if abs(term) < 1e-17 * abs(total):
            return total * math.exp(-x + a * math.log(x))
    raise ConvergenceError("lower gamma series stalled")


def gamma_upper(a: float, x: float) -> float:
    r"""Upper incomplete gamma :math:`\Gamma(a, x)` for ``a <= 1``, ``x > 0``.

    Integer and half-integer orders (the ones the cut-off vacuum integrals
    use, e.g. ``a = 0, -1/2, -1``) go through exact seeds
    :math:`\Gamma(1,x) = e^{-x}`, :math:`\Gamma(1/2,x) = \sqrt\pi\,
    \mathrm{erfc}\sqrt x`, :math:`\Gamma(0,x) = E_1(x)` and the downward
    recurrence :math:`\Gamma(a-1,x) = (\Gamma(a,x) - x^{a-1}e^{-x})/(a-1)`.
    Generic orders use a Lentz continued fraction (large ``x``) or the
    lower-gamma series complement (small ``x``).
    """
    if not a <= 1.0 + _LATTICE_TOL:
        raise ValueError(f"gamma_upper requires a <= 1, got a={a!r}")
    if not x > 0.0:
        raise ValueError(f"gamma_upper requires x > 0, got x={x!r}")

    twice = 2.0 * a
    if abs(twice - round(twice)) < _LATTICE_TOL:
        half_steps = int(round(twice))     # a = half_steps / 2 exactly
        if half_steps % 2 == 0:            # integer order
            n = half_steps // 2
            if n == 1:
                return math.exp(-x)
            value = _e1(x)
            t = 0.0
        else:                              # half-integer order
            value = math.sqrt(math.pi) * math.erfc(math.sqrt(x))
            t = 0.5
        while t > a + 0.25:
            value = (value - math.exp((t - 1.0) * math.log(x) - x)) / (t - 1.0)
            t -= 1.0
        return value

    if x >= a + 1.5:
        return _lentz_gamma_cf(a, x)
    return math.gamma(a) - _gamma_lower_series(a, x)


# ----------------------------------------------------------------------
# Modified Bessel I_nu, first kind, nu >= 0, x >= 0
# ----------------------------------------------------------------------

def _validate_bessel(nu: float, x: float) -> None:
    if not 0.0 <= nu <= _NU_MAX:
        raise ValueError(f"Bessel order must lie in [0, {_NU_MAX}], got {nu!r}")
    if not 0.0 <= x <= _X_MAX:
        raise ValueError(f"Bessel argument must lie in [0, {_X_MAX}], got {x!r}")


def _validate_ladder(f: float, count: int, xs) -> np.ndarray:
    """``xs`` as a float array, once orders ``f .. f + count - 1`` and every
    argument are checked against the Bessel domain."""
    xs = np.asarray(xs, dtype=float)
    if count < 1:
        raise ValueError(f"ladder needs count >= 1, got {count!r}")
    _validate_bessel(f, 0.0)
    _validate_bessel(f + (count - 1), 0.0)
    outside = ~((xs >= 0.0) & (xs <= _X_MAX))
    if outside.any():
        _validate_bessel(f, float(xs[outside][0]))
    return xs


def _bessel_i_scaled_pivot(nu: float, x: float) -> float:
    """e^{-x} I_nu(x) summed relative to the largest series term.

    The series sum_k (x/2)^{nu+2k} / (k! Gamma(nu+k+1)) has all-positive
    terms peaking at k* ~ (sqrt((nu+1)^2 + x^2) - (nu+1)) / 2; summing
    relative to that term keeps every intermediate in range up to x = 1e4.
    """
    q = 0.5 * x
    kpeak = int(max(0.0, round(0.5 * (math.sqrt((nu + 1.0) ** 2 + x * x)
                                      - (nu + 1.0)))))
    # Upward from the peak.
    rel = 1.0
    up = 0.0
    k = kpeak
    for _ in range(_MAX_SERIES_TERMS):
        ratio = q * q / ((k + 1.0) * (k + 1.0 + nu))
        rel *= ratio
        if rel < 1e-18:
            break
        up += rel
        k += 1
    else:
        raise ConvergenceError("I_nu series (upward) stalled")
    # Downward from the peak.
    rel = 1.0
    down = 0.0
    k = kpeak
    while k > 0:
        rel *= (k * (k + nu)) / (q * q)
        if rel < 1e-18:
            break
        down += rel
        k -= 1
    log_peak = ((nu + 2.0 * kpeak) * math.log(q) - math.lgamma(kpeak + 1.0)
                - math.lgamma(nu + kpeak + 1.0)) if q > 0.0 else 0.0
    return math.exp(log_peak - x) * (1.0 + up + down)


def bessel_i_scaled(nu: float, x: float) -> float:
    """Exponentially scaled modified Bessel function ``e^{-x} I_nu(x)``.

    Stable for the whole supported range ``nu in [0, 256]``, ``x in [0, 1e4]``.
    """
    _validate_bessel(nu, x)
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    return _bessel_i_scaled_pivot(nu, x)


def _bessel_i_scaled_ladder(f: float, count: int,
                            xs: np.ndarray) -> np.ndarray:
    """``e^{-x} I_{f+j}(x)`` for ``j < count``, as a (count, len(xs)) array.

    Row 0 is the pivot series at order ``f``, one per argument.  The
    ratios ``R_j = I_{f+j} / I_{f+j-1}`` follow from the three-term
    recurrence run downward as a continued fraction, ``R_j = x / (2 (f+j)
    + x R_{j+1})``, started at ``R = 0`` far enough above the top order
    for it to converge; ``I`` is the recurrence's minimal solution, so the
    downward sweep is stable (Gautschi, SIAM Rev. 9 (1967) 24).  Each row
    is the previous one times its ratio.  Ratios lie in [0, 1), so
    nothing overflows and tiny arguments underflow to 0.
    """
    xs = _validate_ladder(f, count, xs)
    ladder = np.empty((count, xs.size))
    ladder[0] = [bessel_i_scaled(f, x) for x in xs.tolist()]
    if count > 1 and xs.size:
        ratio = np.zeros(xs.size)
        top = count + 20 + int(9.0 * math.sqrt(float(xs.max())))
        for j in range(top, 0, -1):
            ratio = xs / (2.0 * (f + j) + xs * ratio)
            if j < count:
                ladder[j] = ratio
        np.cumprod(ladder, axis=0, out=ladder)
    return ladder


def _bessel_i_small(nu: float, x: float) -> float:
    """Plain ascending series for I_nu, positive terms, for x <= 50."""
    q = 0.5 * x
    term = math.exp(nu * math.log(q) - math.lgamma(nu + 1.0)) if q > 0 else \
        (1.0 if nu == 0.0 else 0.0)
    total = term
    for k in range(0, _MAX_SERIES_TERMS):
        term *= q * q / ((k + 1.0) * (k + 1.0 + nu))
        total += term
        if term < 1e-17 * total:
            return total
    raise ConvergenceError("I_nu ascending series stalled")


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind ``I_nu(x)``.

    Raises
    ------
    OverflowError
        When the unscaled value exceeds double range (x above ~709);
        use :func:`bessel_i_scaled` there.
    """
    _validate_bessel(nu, x)
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x <= 50.0:
        return _bessel_i_small(nu, x)
    if x > _EXP_OVERFLOW:
        raise OverflowError(
            f"I_nu({x}) overflows a double; call bessel_i_scaled instead")
    return math.exp(x) * _bessel_i_scaled_pivot(nu, x)


# ----------------------------------------------------------------------
# Bessel J_nu, first kind, nu >= 0, x >= 0
# ----------------------------------------------------------------------

_J_SERIES_MAX_X = 7.0      # the alternating series is 1.5e-14 off by x = 8
_J_HANKEL_MIN_X = 18.0     # Hankel's smallest term, ~e^{-2x}, is below eps


def _bessel_j_series(orders: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Ascending series of ``J_nu(x)``, ``x <= 7``, for every order of
    ``orders`` at every argument of ``xs``, as a (len(orders), len(xs))
    array.

    Each pair keeps its terms up to the first one at most 1e-18 of the
    largest so far, at most 32 after the first (enough for ``x <= 7``),
    and adds them with ``math.fsum``.
    """
    q = 0.5 * xs
    first = np.reshape([
        math.exp(nu * math.log(h) - math.lgamma(nu + 1.0)) if h > 0.0
        else (1.0 if nu == 0.0 else 0.0)
        for nu in orders.tolist() for h in q.tolist()
    ], (1, orders.size, xs.size))
    k = np.arange(1.0, 33.0)[:, None, None]
    ratios = -(q * q) / (k * (k + orders[:, None]))
    terms = np.cumprod(np.concatenate([first, ratios]), axis=0)
    size = np.abs(terms)
    small = size <= 1e-18 * np.maximum.accumulate(size)
    small[0] = False
    if not small.any(axis=0).all():
        raise ConvergenceError("J_nu series stalled")
    terms[np.arange(len(terms))[:, None, None] > np.argmax(small, axis=0)] = 0.0
    columns = terms.reshape(len(terms), -1).T.tolist()
    return np.reshape([math.fsum(c) for c in columns], first.shape[1:])


def _bessel_j_hankel(f: float, xs: np.ndarray) -> np.ndarray:
    """``J_f(x)`` and ``J_{f+1}(x)`` at every ``x >= 18``, as a (2, len(xs))
    array, from Hankel's expansion (DLMF 10.17.3).

    ``J = sqrt(2/(pi x)) (P cos w - Q sin w)`` with ``w = x - phi``,
    ``phi = (nu/2 + 1/4) pi``.  ``P`` and ``Q`` share the terms
    ``a_k(nu) / x^k``, kept while they shrink and up to the first below
    1e-18; they grow again from ``k ~ 2x``, so for ``x >= 18`` that stops
    by ``k = 41``, inside the 48 terms built.
    ``cos w`` and ``sin w`` are expanded in ``cos x`` and ``sin x`` of the
    exact argument, so the phase keeps full precision up to ``x = 1e4``.
    """
    nus = np.array([[f], [f + 1.0]])
    mu = 4.0 * nus * nus
    k = np.arange(1.0, 49.0)[:, None, None]
    ratios = (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * xs)
    terms = np.cumprod(np.concatenate([np.ones((1, 2, xs.size)), ratios]),
                       axis=0)
    size = np.abs(terms)
    kept = np.logical_and.accumulate(
        (size[1:] < size[:-1]) & (size[:-1] > 1e-18), axis=0)
    if kept[-1].any():
        raise ConvergenceError("Hankel expansion of J_nu stalled")
    terms[1:][~kept] = 0.0
    terms[2::4] *= -1.0                       # (-1)^k a_2k for P
    terms[3::4] *= -1.0                       # (-1)^k a_2k+1 for Q
    p = np.cumsum(terms[0::2], axis=0)[-1]
    q = np.cumsum(terms[1::2], axis=0)[-1]
    phi = (0.5 * nus + 0.25) * math.pi
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    cos_x, sin_x = np.cos(xs), np.sin(xs)
    cos_w = cos_x * cos_phi + sin_x * sin_phi
    sin_w = sin_x * cos_phi - cos_x * sin_phi
    return np.sqrt(2.0 / (math.pi * xs)) * (p * cos_w - q * sin_w)


def _bessel_j_miller(f: float, count: int, x: float) -> list[float]:
    """``J_{f+j}(x)`` for every ``j < count``, ``0 <= f < 1``, from one
    Miller downward recurrence normalized by a series identity.

    One descent from ``n_top = int(max(x, count - 1)) + 64`` passes every
    rung below its start, so it yields them all (Gautschi, SIAM Rev. 9
    (1967) 24); each kept rung is rescaled with the running values.
    Integer order uses ``J_0 + 2 sum_k J_{2k} = 1``; fractional order
    ``(x/2)^f = sum_k (f+2k) Gamma(f+k)/k! J_{f+2k}``.
    """
    integer_order = f < _LATTICE_TOL
    n_top = int(max(x, float(count - 1))) + 64

    big = 1e250
    y_up = 0.0                       # y at index j+1
    y = 1e-300                       # y at index j = n_top
    norm = 0.0
    kept = [0.0] * count             # y at index j, once j < count
    j = n_top
    while j > 0:
        y_down = (2.0 * (f + j) / x) * y - y_up
        y_up, y = y, y_down
        j -= 1
        if j < count:
            kept[j] = y
        if j % 2 == 0:
            if integer_order:
                norm += (y if j == 0 else 2.0 * y)
            else:
                k = j // 2
                coeff = math.exp(math.lgamma(f + k) - math.lgamma(k + 1.0)) \
                    * (f + 2.0 * k)
                norm += coeff * y
        if abs(y) > big:
            y /= big
            y_up /= big
            norm /= big
            for i in range(j, count):
                kept[i] /= big
    scale = 1.0 if integer_order else (0.5 * x) ** f
    return [y * scale / norm for y in kept]


def _bessel_j_ladder(f: float, count: int, xs: np.ndarray) -> np.ndarray:
    """``J_{f+j}(x)`` for ``j < count``, ``0 <= f < 1``, as a
    (count, len(xs)) array, with one branch per argument and order:

    * ``x <= 7``: the ascending series of every order, for all such
      arguments at once;
    * ``x >= 18`` and ``f + j < x``: Hankel's expansion for ``J_f`` and
      ``J_{f+1}``, then the upward recurrence ``J_{n+1} = (2n/x) J_n -
      J_{n-1}``, which is stable below the turning point ``n = x``;
    * otherwise (``7 < x < 18``, or ``f + j >= x``): one Miller descent
      per argument (``_bessel_j_miller``).

    A rung's value depends on ``count`` only through the Miller start, and
    not at all while ``count - 1 <= x``.  Above the turning point ``J``
    is the recurrence's minimal solution, so the upward values there
    carry an error that grows like ``Y_n``; they are replaced by Miller's
    (with orders at most 256 and ``x >= 18``, that error stays below 1e250).
    """
    xs = _validate_ladder(f, count, xs)
    ladder = np.empty((count, xs.size))
    orders = f + np.arange(count, dtype=float)
    series = xs <= _J_SERIES_MAX_X
    if series.any():
        ladder[:, series] = _bessel_j_series(orders, xs[series])
    hankel = xs >= _J_HANKEL_MIN_X
    if hankel.any():
        xh = xs[hankel]
        upward = np.empty((count, xh.size))
        upward[:2] = _bessel_j_hankel(f, xh)[:count]
        for j in range(1, int(np.searchsorted(orders, xh.max())) - 1):
            upward[j + 1] = (2.0 * (f + j) / xh) * upward[j] - upward[j - 1]
        ladder[:, hankel] = upward
    for i in np.flatnonzero(~series & ~(hankel & (orders[-1] < xs))).tolist():
        x = float(xs[i])
        low = int(np.searchsorted(orders, x)) if hankel[i] else 0
        ladder[low:, i] = _bessel_j_miller(f, count, x)[low:]
    return ladder


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind ``J_nu(x)``.

    Rung ``floor(nu)`` of :func:`_bessel_j_ladder`'s ladder of the
    fractional part of ``nu``: the ascending series up to ``x = 7``,
    Hankel's expansion with the upward recurrence for ``x >= 18`` and
    ``nu < x``, and a Miller descent everywhere else.
    """
    _validate_bessel(nu, x)
    f = nu - math.floor(nu)
    m = int(round(nu - f))
    return float(_bessel_j_ladder(f, m + 1, np.array([x]))[m, 0])
