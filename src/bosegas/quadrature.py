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
decay length; see ``RadialIntegralSpec.tail_scale``).  The integrand is
called with 1-D arrays whose length is a multiple of 15 (the nodes of one
or more panels at once), never with a float, and returns values of the
same shape or a scalar, which broadcasts.  One that rejects arrays raises
its own error; an output of any other shape raises ``ValueError``, and so
does a non-finite value, overflow included: each integral runs under
``np.errstate`` that ignores it, and the error names the node's radius p.

One adaptive loop, the ``_adaptive`` coroutine, holds the GK15 heap and
asks for the panels it needs; two routes run it.  ``integrate_radial``
runs one loop and evaluates panels with ``_gk15_batch``.  The batched route
``_integrate_radial_rows`` runs one loop per row of a batch (a sweep's
temperatures, or the Bessel orders of one oracle check): each round it
evaluates the panels every open row asked for with one integrand call
per piece kind, each panel tagged with its row, and reduces every panel
along its own nodes, so a row's bits do not depend on which rows share
its batch.

``sum_bilateral`` evaluates :math:`\sum_{k=-\infty}^{\infty} g(k)` by direct
symmetric summation to |k| = 16, 32, 64, ..., plus at each checkpoint an
Euler-Maclaurin midpoint tail per side from a = k + 1/2 (GK15 in t = a/v
over v in [1e-12, 1] on nested levels of equal panels, and g'/24 -
7 g'''/5760 from lattice differences), so :math:`1/k^2` tails converge
cheaply; one summand call, at non-integer k too, serves each checkpoint.  A
summand maps a column of k, shape (nk, 1), to (nk,) or (nk, 1) values, or
to (nk, n) values: n sums, each settled at its own first checkpoint,
whatever the rest of the batch.  Any other shape raises ``ValueError``.

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

_XGK = np.concatenate([np.negative(_XGK_HALF[:7]), _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:7], _WGK_HALF[::-1]])
_WG15 = np.zeros(15)
_WG15[1:14:2] = _WG_HALF + _WG_HALF[-2::-1]
_WKG = np.stack([_WGK, _WGK - _WG15])   # Kronrod, and Kronrod minus Gauss

_TINY_TOTAL = 1e-300
_MIN_PANEL_FACTOR = 50.0   # panels narrower than ~50 ulp are not split further
_EPS = float(np.finfo(float).eps)


def _solid_angle(dimension: int) -> float:
    """Omega_D / (2 pi)^D for D in {1, 2, 3, 4}."""
    omega = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi,
             4: 2.0 * math.pi ** 2}[dimension]
    return omega / (2.0 * math.pi) ** dimension


_Integrand = Callable[[np.ndarray], np.ndarray]


def _gk15_batch(f: _Integrand, spans: Sequence[tuple[float, float]],
                to_p: Callable) -> list[tuple[float, float]]:
    """Gauss7/Kronrod15 on each (a, b) of ``spans``, from one call of ``f``.

    Returns one (integral, error estimate) per panel.  Each panel's pair
    comes from the same float operations on its own 15 values as a
    one-panel evaluation, so batching does not change a bit of it.
    """
    halves = [0.5 * (b - a) for a, b in spans]
    centers = [0.5 * (a + b) for a, b in spans]
    xs = (np.array(centers)[:, None]
          + np.array(halves)[:, None] * _XGK).ravel()
    ys = f(xs)
    if not np.isfinite(ys).all():
        p = to_p(xs[~np.isfinite(ys)][0])
        raise ValueError(
            f"integrand returned a non-finite value at p = {float(p)!r}")
    out = []
    for half, y in zip(halves, ys.reshape(-1, 15)):
        resk = float(_WGK @ y)
        resg = float(_WG15 @ y)
        resasc = float(_WGK @ np.abs(y - resk * 0.5)) * abs(half)
        err = abs((resk - resg) * half)
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        out.append((resk * half, err))
    return out


def _gk15_reduce(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GK15 (integral, error) of each panel, per unit half-width, from its
    15 values on the last axis of ``y``, reduced along that axis only;
    equal values give error 0."""
    res = (y[..., None, :] * _WKG).sum(axis=-1)
    resk = res[..., 0]
    resasc = (np.abs(y - 0.5 * resk[..., None]) * _WGK).sum(-1)
    ratio = 200.0 * np.abs(res[..., 1]) / np.maximum(resasc, _TINY_TOTAL)
    return resk, resasc * np.minimum(1.0, ratio) ** 1.5


def _adaptive(pieces: Sequence[list[tuple[float, float]]],
              acc: AccuracyBudget, where: str):
    """Globally adaptive GK15 over pieces of one integral, as a coroutine.

    ``pieces[k]`` holds the initial (lo, hi) panels of integrand kind k
    (finite-range pieces and a mapped tail share one error budget).  The
    coroutine yields (kind, [(lo, hi), ...]), first each kind's initial
    panels, then the two children of each split, and takes back one
    (value, error) per panel.  The refinement order (always split the
    panel of largest error, oldest first on ties) is that of evaluating
    one panel at a time.  Returns (value, error estimate); raises
    QuadratureError, with the partial value and its relative error
    estimate, if the split budget runs out above tolerance or panels too
    narrow to split hold more error than the tolerance allows.
    """
    heap: list = []            # (-err, seq, kind, a, b, value, err)
    seq = 0
    val_sum = 0.0
    err_sum = 0.0
    for kind, spans in enumerate(pieces):
        if not spans:
            continue
        values = yield kind, spans
        for (a, b), (v, e) in zip(spans, values):
            heapq.heappush(heap, (-e, seq, kind, a, b, v, e))
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
        # Unsplittable panels whose error alone exceeds any target the
        # value can still reach make further splits pointless.
        stalled = not heap or frozen_err > max(
            acc.relative_tolerance * (abs(total_val) + total_err), _TINY_TOTAL)
        if stalled or splits >= acc.max_subdivisions:
            # Both printed numbers are relative to |total_val|, as is
            # ``achieved``.
            norm = max(abs(total_val), _TINY_TOTAL)
            cause = ("stalled on unsplittable panels" if stalled else
                     f"needed more than {acc.max_subdivisions} subdivisions")
            raise QuadratureError(
                f"quadrature {cause} at {where}; achieved relative error "
                f"{total_err / norm:.3e} vs target {target / norm:.3e}",
                estimate=total_val, achieved=total_err / norm)
        _, _, kind, a, b, v, e = heapq.heappop(heap)
        val_sum -= v
        err_sum -= e
        width_floor = max(_MIN_PANEL_FACTOR * _EPS * max(abs(a), abs(b)),
                          1e-320)
        if b - a <= width_floor:
            frozen_val += v     # cannot refine further; keep as-is
            frozen_err += e
            continue
        mid = 0.5 * (a + b)
        children = ((a, mid), (mid, b))
        values = yield kind, children
        for (lo, hi), (v2, e2) in zip(children, values):
            heapq.heappush(heap, (-e2, seq, kind, lo, hi, v2, e2))
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
        Radial profile f(p).  Called with 1-D numpy arrays whose length
        is a multiple of 15 (the nodes of one or more panels), never with
        a float; returns values of the same shape or a scalar, and any
        other shape raises ValueError.  Must be finite on (0, inf).
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _integrate_radial_report(spec: RadialIntegralSpec) -> tuple[float, float]:
    """integrate_radial plus the achieved absolute error estimate."""
    power = spec.dimension - 1
    scale = spec.tail_scale

    breaks = sorted({0.0, *spec.singular_points})
    p_last = breaks[-1]

    def radial(ps: np.ndarray) -> np.ndarray:
        ys = np.asarray(spec.integrand(ps), dtype=float)
        if ys.ndim and ys.shape != ps.shape:
            raise ValueError(f"integrand returned shape {ys.shape} for "
                             f"nodes of shape {ps.shape}")
        return ys * ps ** power

    def tail_p(us):
        return p_last - scale * np.log(us)

    def tail(us: np.ndarray) -> np.ndarray:
        return radial(tail_p(us)) * (scale / us)

    kinds = ((radial, float), (tail, tail_p))   # (integrand, node -> p)
    run = _adaptive([list(zip(breaks[:-1], breaks[1:])), [(0.0, 1.0)]],
                    spec.accuracy, "p")
    angular = _solid_angle(spec.dimension)
    try:
        kind, panels = next(run)
        while True:
            f, to_p = kinds[kind]
            kind, panels = run.send(_gk15_batch(f, panels, to_p))
    except StopIteration as stop:
        value, err = stop.value
    except QuadratureError as exc:
        exc.estimate *= angular     # the partial value of the full integral
        raise
    return angular * value, angular * err


def _gk15_tagged(f: Callable, los: np.ndarray, his: np.ndarray,
                 rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """GK15 on panels [lo, hi] of several rows from one call ``f(xs,
    tags)``, with 15 nodes per panel in ``xs`` and the panels' rows in
    ``tags`` (shape (panels, 1)).  Returns the nodes, the mask of finite
    values and each panel's integral and error (not finite where the
    panel's values are not)."""
    halves = 0.5 * (his - los)
    xs = (0.5 * (los + his))[:, None] + halves[:, None] * _XGK
    ys = f(xs, rows[:, None])
    resk, err = _gk15_reduce(ys)
    return xs, np.isfinite(ys), resk * halves, err * halves


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _integrate_radial_rows(dimension: int, integrand: Callable,
                           grids: Sequence[tuple[tuple[float, ...], float]],
                           acc: AccuracyBudget) -> list:
    """The batched route (see the module doc): row i integrates
    ``integrand(ps, rows)`` where ``rows == i``, split at ``grids[i] =
    (singular_points, tail_scale)`` as a spec is.  Returns each row's
    value, or the ValueError (non-finite integrand) or QuadratureError it
    raised, with the single route's message."""
    power = dimension - 1
    angular = _solid_angle(dimension)
    breaks = [sorted({0.0, *pts}) for pts, _ in grids]
    p_last = np.array([b[-1] for b in breaks])
    scale = np.array([s for _, s in grids], dtype=float)

    def radial(ps: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return integrand(ps, rows) * ps ** power

    def tail_p(us, rows):
        return p_last[rows] - scale[rows] * np.log(us)

    def tail(us: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return radial(tail_p(us, rows), rows) * (scale[rows] / us)

    kinds = ((radial, lambda x, _row: x), (tail, tail_p))  # node -> p
    out: list = [None] * len(grids)
    runs = [_adaptive([list(zip(b[:-1], b[1:])), [(0.0, 1.0)]], acc, "p")
            for b in breaks]
    pending = {i: next(run) for i, run in enumerate(runs)}
    while pending:
        replies: dict[int, list] = {}
        bad: dict[int, float] = {}
        for kind, (f, to_p) in enumerate(kinds):
            owned = [(i, panels) for i, (k, panels) in pending.items()
                     if k == kind]
            if not owned:
                continue
            lohi = np.array([span for _, panels in owned for span in panels])
            tags = np.repeat([i for i, _ in owned],
                             [len(panels) for _, panels in owned])
            xs, finite, values, errors = _gk15_tagged(
                f, lohi[:, 0], lohi[:, 1], tags)
            pairs = list(zip(values.tolist(), errors.tolist()))
            start = 0
            for i, panels in owned:
                replies[i] = pairs[start:start + len(panels)]
                start += len(panels)
            for j in np.flatnonzero(~finite.all(axis=1)):
                bad.setdefault(int(tags[j]),
                               to_p(xs[j][~finite[j]][0], tags[j]))
        pending = {}
        for i, reply in replies.items():
            try:
                if i in bad:
                    out[i] = ValueError("integrand returned a non-finite "
                                        f"value at p = {float(bad[i])!r}")
                else:
                    pending[i] = runs[i].send(reply)
            except StopIteration as stop:
                out[i] = angular * stop.value[0]
            except QuadratureError as exc:
                exc.estimate *= angular
                out[i] = exc
    return out


_V_MIN_TAIL = 1e-12   # keeps t = a/v finite; drops < 1e-12 of a 1/k^2 tail
_EM_WEIGHTS = np.array([7.0, -261.0, 261.0, -7.0]) / 5760.0  # g(k-1 .. k+2)


def _gk15_rows(y: np.ndarray, half: float) -> tuple[np.ndarray, np.ndarray]:
    """GK15 (integral, error) per row of ``y`` (15 values per panel of
    half-width ``half``), reduced within each row; equal values give 0."""
    resk, err = _gk15_reduce(y.reshape(*y.shape[:-1], -1, 15))
    return resk.sum(axis=-1) * half, err.sum(axis=-1) * half


def _tail_nodes(level: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes v, 1/v^2 and half-width of 2**level GK15 panels on [1e-12, 1]."""
    half = 0.5 * (1.0 - _V_MIN_TAIL) / 2 ** level
    centers = _V_MIN_TAIL + half * (2.0 * np.arange(2 ** level) + 1.0)
    vs = (centers[:, None] + half * _XGK).ravel()
    return vs, 1.0 / vs ** 2, half


def sum_bilateral(term: Callable, acc: AccuracyBudget = DEFAULT_BUDGET
                  ) -> float | np.ndarray:
    """Sum ``term(k)`` over all integers ``k`` (see the module doc): a float
    for a batch of one, else the n sums; ``term`` maps a column of k to
    (nk,), (nk, 1) or (nk, n) values, else ValueError.  Raises
    ``ConvergenceError`` if a sum is unsettled at |k| = max_terms / 2, or
    if the tail of an unsettled sum misses min(1e-3, 10 rtol) at the most
    panels, 2**j <= max(64, max_subdivisions // 4).  Its ``estimate``
    (settled values, else last candidates) and relative ``achieved`` (the
    change between the last two candidates, NaN after one, or the failed
    tail's error) are shaped like the result."""
    tail_rtol = min(1e-3, 10.0 * acc.relative_tolerance)
    max_level = max(64, acc.max_subdivisions // 4).bit_length() - 1
    k_max = max(16, acc.max_terms // 2)
    batch = lambda x: float(x[0]) if x.size == 1 else x  # noqa: E731

    def values(side: np.ndarray) -> np.ndarray:     # (n, 2 signs, len(side))
        ks = np.concatenate((side, -side))[:, None]
        out = np.asarray(term(ks), dtype=float)
        if out.ndim not in (1, 2) or len(out) != len(ks):
            raise ValueError(f"summand returned shape {out.shape} for k of "
                             f"shape {ks.shape}")
        return np.ascontiguousarray(out.T).reshape(-1, 2, len(side))

    (vs, inv_v2, half), lo, hi = _tail_nodes(0), 1, 16
    # scalars until the first call fixes n, then arrays of n
    settled, best, change, prev = np.False_, math.nan, math.nan, None
    while lo <= k_max:
        a, nb, open_ = hi + 0.5, hi - lo + 1, ~settled
        # the block and hi + 1, hi + 2 for the lattice, the tail nodes, 0
        ys = values(np.concatenate((np.arange(lo, hi + 3.0), a / vs, [0.0])))
        total = (ys[:, 0, -1] if prev is None else total) + (
            ys[:, 0, :nb] + ys[:, 1, :nb]).sum(axis=-1)
        tail, err = _gk15_rows(ys[:, :, nb + 2:-1] * (a * inv_v2), half)
        level, need = 0, open_[..., None] & (
            err > np.maximum(tail_rtol * np.abs(tail), _TINY_TOTAL))
        while need.any() and level < max_level:
            level += 1
            v2, w2, h2 = _tail_nodes(level)
            t2, e2 = _gk15_rows(values(a / v2) * (a * w2), h2)
            tail, err = np.where(need, t2, tail), np.where(need, e2, err)
            need &= e2 > np.maximum(tail_rtol * np.abs(t2), _TINY_TOTAL)
        corr = tail + (ys[:, :, nb - 2:nb + 2] * _EM_WEIGHTS).sum(axis=-1)
        candidate = total + (corr[:, 0] + corr[:, 1])
        scale = np.maximum(np.abs(candidate), _TINY_TOTAL)
        if prev is not None:
            change = np.where(open_, np.abs(candidate - prev) / scale, change)
            settled = change <= acc.relative_tolerance
        best = np.where(open_, candidate, best)
        if not np.isfinite(best).all():
            raise ValueError(f"summand not finite at some |k| <= {hi + 2}")
        if need.any():
            change = np.where(need.any(1), err.sum(1) / scale, change)
            raise ConvergenceError(
                f"bilateral sum tail unsettled at {2 ** level} panels",
                batch(best), batch(change))
        if settled.all():
            return batch(best)
        prev, lo, hi = candidate, hi + 1, 2 * hi
    raise ConvergenceError(
        f"bilateral sum did not settle within {k_max} terms per side",
        estimate=batch(best), achieved=batch(change))
