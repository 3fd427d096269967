r"""Special functions needed by the thermal field integrals.

Everything here is pure, deterministic float arithmetic; the Bessel
tables fill numpy arrays:

* ``polylog(s, z)``  for :math:`z \in [0, 1]`, via the defining power series
  away from the endpoint and the Robinson (Hurwitz-series) expansion in
  :math:`\delta = -\ln z` near it.
* ``zeta(s)``        for :math:`s > 1`, Euler-Maclaurin tail summation.
* ``gamma_upper(a, x)`` for :math:`a \le 1`, :math:`x > 0`, by downward
  recurrence from closed-form seeds on the integer and half-integer
  lattices, and by Lentz continued fraction or lower-series complement for
  generic ``a``.  This is the regulator shape used for ultraviolet-cut
  vacuum pieces, so small ``x`` must be exact.
* private tables of the Bessel functions ``e^{-x} I`` (modified, first
  kind) and ``J`` (first kind) at the orders ``f, f+1, ...`` at every
  argument, ``f`` and the number of orders given per argument
  (``_bessel_i_scaled_ladder``, ``_bessel_j_ladder``), which the oracles'
  order sums read.  I: one array kernel at order ``f`` (the
  ascending series below ``x = 20``, Hankel's expansion from there) and
  one downward ratio recurrence, within 1e-13 (relative) of 30-digit
  references; J: the ascending series, Hankel's expansion with the upward
  recurrence, or a Miller descent, by argument and order, within 1e-14
  (absolute); both for ``x <= 1e4``, ``nu <= 256``.

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
_I_HANKEL_MIN_X = 20.0    # Hankel's e^{-2x} companion is below 4e-18 here


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

def _validate_ladder(f, count, xs):
    """``f``, ``count``, ``xs`` as arrays shaped like ``xs``, once every ``f``
    is in [0, 1), every count >= 1 and all orders and arguments in range."""
    xs = np.asarray(xs, dtype=float)
    fs, counts = np.full(xs.shape, f, dtype=float), np.full(xs.shape, count)
    if not ((fs >= 0.0) & (fs < 1.0) & (counts >= 1)
            & (fs + (counts - 1) <= _NU_MAX)).all():
        raise ValueError(f"a ladder needs f in [0, 1), count >= 1 and f + "
                         f"count - 1 <= {_NU_MAX}, got {f!r} and {count!r}")
    if not (xs.min(initial=0.0) >= 0.0 and xs.max(initial=0.0) <= _X_MAX):
        raise ValueError(f"Bessel argument must lie in [0, {_X_MAX}], got "
                         f"{float(xs[~((xs >= 0.0) & (xs <= _X_MAX))][0])!r}")
    return fs, counts, xs


def _hankel_terms(mu: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Terms ``a_k(nu) / x^k``, ``k <= 48``, of Hankel's expansions (DLMF
    10.17(i), 10.40(i)), ``mu = 4 nu^2``, on a new first axis: kept while
    they shrink (until ``k ~ 2x``) and up to the first below 1e-18, by
    ``k = 41`` for ``nu < 2``, ``x >= 18``; the rest are zero."""
    k = np.arange(1.0, 49.0).reshape((-1,) + (1,) * np.ndim(mu))
    ratios = (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * xs)
    terms = np.cumprod(np.concatenate([np.ones((1,) + ratios.shape[1:]),
                                       ratios]), axis=0)
    size = np.abs(terms)
    kept = np.logical_and.accumulate(
        (size[1:] < size[:-1]) & (size[:-1] > 1e-18), axis=0)
    if kept[-1].any():
        raise ConvergenceError("Hankel expansion stalled")
    terms[1:][~kept] = 0.0
    return terms


def _bessel_i_scaled_kernel(fs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``e^{-x} I_f(x)`` at every argument, ``0 <= f < 1`` per argument.

    Below ``x = 20``: ``e^{-x}`` times the ascending series ``sum_k
    (x/2)^{f+2k} / (k! Gamma(f+k+1))``, 49 terms from one ``cumprod``.
    From ``x = 20``: Hankel's expansion ``(2 pi x)^{-1/2} sum_k (-1)^k
    a_k(f) / x^k`` (DLMF 10.40.1), whose ``e^{-2x}`` companion is below
    4e-18 there.  No exponent of size ``x`` carries a rounding error.
    """
    out = np.empty(xs.shape)
    series = xs < _I_HANKEL_MIN_X
    if series.any():
        x, f = xs[series], fs[series]
        distinct, which = np.unique(f, return_inverse=True)
        gamma = np.array([math.gamma(1.0 + v) for v in distinct.tolist()])
        k = np.arange(1.0, 49.0)[:, None]
        terms = np.cumprod(np.concatenate([[(0.5 * x) ** f / gamma[which]],
                                           0.25 * x * x / (k * (k + f))]),
                           axis=0)
        out[series] = np.exp(-x) * np.cumsum(terms[::-1], axis=0)[-1]
    if not series.all():
        x = xs[~series]
        terms = _hankel_terms(4.0 * fs[~series] ** 2, x)
        terms[1::2] *= -1.0
        out[~series] = (np.cumsum(terms[::-1], axis=0)[-1]
                        / np.sqrt(2.0 * math.pi * x))
    return out


def _bessel_i_scaled_ladder(f, count, xs) -> np.ndarray:
    """``e^{-x} I_{f+j}(x)`` for ``j < count``, as a (max count, len(xs))
    array; ``f`` in [0, 1) and ``count`` are one value or one per argument,
    and an argument's rows from its own count up are 0.

    Row 0 is ``_bessel_i_scaled_kernel``; each further row is the previous
    one times ``R_j = I_{f+j} / I_{f+j-1} = x / (2 (f+j) + x R_{j+1})``,
    a continued fraction run downward from ``R = 0`` on each argument's
    own rung ``count + 20 + 9 sqrt(x)``.  ``I`` is the recurrence's minimal
    solution, so that is stable (Gautschi, SIAM Rev. 9 (1967) 24), and an
    argument's rows depend on its own ``f``, ``count`` and ``x`` only.
    Ratios lie in [0, 1): nothing overflows, tiny arguments give 0.
    """
    fs, counts, xs = _validate_ladder(f, count, xs)
    rows = int(np.max(count))
    ladder = np.zeros((rows, xs.size))
    ladder[0] = _bessel_i_scaled_kernel(fs, xs)
    if rows > 1 and xs.size:
        tops = counts + 20 + (9.0 * np.sqrt(xs)).astype(int)
        by_top = np.argsort(tops)
        tops, x, two_f = tops[by_top], xs[by_top], 2.0 * fs[by_top]
        started = np.searchsorted(tops, np.arange(tops[-1] + 1)).tolist()
        ratios = np.zeros((rows, xs.size))
        ratio = np.zeros(xs.size)
        s = None
        for j in range(len(started) - 1, 0, -1):
            if started[j] != s:
                s = started[j]
                r, xr, tf = ratio[s:], x[s:], two_f[s:]
            r *= xr                                # in place: x R_{j+1}
            r += tf + 2.0 * j
            np.divide(xr, r, out=r)
            if j < rows:
                ratios[j] = ratio
        ladder[1:, by_top] = ratios[1:]
        ladder[np.arange(rows)[:, None] >= counts] = 0.0
        np.cumprod(ladder, axis=0, out=ladder)
    return ladder


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
    ``a_k(nu) / x^k`` of ``_hankel_terms``.
    ``cos w`` and ``sin w`` are expanded in ``cos x`` and ``sin x`` of the
    exact argument, so the phase keeps full precision up to ``x = 1e4``.
    """
    nus = np.array([[f], [f + 1.0]])
    terms = _hankel_terms(4.0 * nus * nus, xs)
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

    One descent from ``n_top = int(max(x, count - 1)) + 64`` (clear of the
    turning point's Airy layer where ``x < 18`` or ``x <= nu <= 256``, the
    only places it runs) passes every rung below its start, so it yields
    them all (Gautschi, SIAM Rev. 9 (1967) 24); each kept rung is rescaled
    with the running values.
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


def _bessel_j_rungs(f: float, count: int, xs: np.ndarray) -> np.ndarray:
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


def _bessel_j_ladder(f, count, xs) -> np.ndarray:
    """``J_{f+j}(x)`` on the contract of ``_bessel_i_scaled_ladder``: one
    ``_bessel_j_rungs`` table per run of arguments that share ``f`` and
    ``count``."""
    fs, counts, xs = _validate_ladder(f, count, xs)
    ladder = np.zeros((int(np.max(count)), xs.size))
    cuts = (np.flatnonzero((fs[1:] != fs[:-1]) | (counts[1:] != counts[:-1]))
            + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [xs.size]) if xs.size else ():
        c = counts[lo].item()
        ladder[:c, lo:hi] = _bessel_j_rungs(fs[lo].item(), c, xs[lo:hi])
    return ladder

