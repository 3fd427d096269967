"""Special-function layer: pinned references and cross-route identities.

Pinned decimal values marked "arbitrary-precision reference" were computed
independently with a 30-digit arbitrary-precision library and are trusted
to well below the asserted tolerances.
"""

import math

import numpy as np
import pytest

from bosegas import specfun
from bosegas.specfun import (AccuracyBudget, DEFAULT_BUDGET,
                             _bessel_i_scaled_ladder, _bessel_j_ladder,
                             bessel_i,
                             bessel_i_scaled, bessel_j, gamma_upper, polylog,
                             zeta)


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestAccuracyBudget:
    def test_defaults(self):
        assert DEFAULT_BUDGET.relative_tolerance == 1e-12
        assert DEFAULT_BUDGET.max_terms >= 16

    @pytest.mark.parametrize("kwargs", [
        {"relative_tolerance": 0.0},
        {"relative_tolerance": 0.5},
        {"max_terms": 4},
        {"max_subdivisions": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AccuracyBudget(**kwargs)


class TestZeta:
    def test_exact_even_arguments(self):
        assert rel(zeta(2.0), math.pi ** 2 / 6.0) < 1e-14
        assert rel(zeta(4.0), math.pi ** 4 / 90.0) < 1e-14

    def test_pinned_values(self):
        # arbitrary-precision references
        assert rel(zeta(1.5), 2.6123753486854883) < 1e-13
        assert rel(zeta(1.7), 2.0542887568377512) < 1e-13

    def test_requires_argument_above_one(self):
        with pytest.raises(ValueError):
            zeta(1.0)
        with pytest.raises(ValueError):
            zeta(0.5)


class TestPolylog:
    def test_log_closed_form(self):
        for z in (0.1, 0.5, 0.99):
            assert rel(polylog(1.0, z, DEFAULT_BUDGET),
                       -math.log1p(-z)) < 1e-14

    def test_endpoint_is_zeta(self):
        assert rel(polylog(1.5, 1.0, DEFAULT_BUDGET), zeta(1.5)) < 1e-13

    def test_dilogarithm_constant(self):
        # Li_2(1/2) = pi^2/12 - ln^2(2)/2
        expected = math.pi ** 2 / 12.0 - 0.5 * math.log(2.0) ** 2
        assert rel(polylog(2.0, 0.5, DEFAULT_BUDGET), expected) < 1e-12

    def test_pinned_high_argument(self):
        # arbitrary-precision references; z > 0.9 exercises the
        # expansion around the endpoint rather than the raw series
        assert rel(polylog(1.5, 0.95, DEFAULT_BUDGET),
                   1.8841573334116293) < 1e-13
        assert rel(polylog(1.5, 0.99, DEFAULT_BUDGET),
                   2.2716600770079993) < 1e-13
        assert rel(polylog(2.5, 0.97, DEFAULT_BUDGET),
                   1.2738028692754493) < 1e-13

    def test_euler_reflection_crosses_routes(self):
        # Li_2(z) + Li_2(1-z) = pi^2/6 - ln(z) ln(1-z): the z ~ 1 side
        # runs the endpoint expansion, the 1-z side the raw series.
        for z in (0.92, 0.95, 0.99):
            lhs = polylog(2.0, z, DEFAULT_BUDGET) \
                + polylog(2.0, 1.0 - z, DEFAULT_BUDGET)
            rhs = math.pi ** 2 / 6.0 - math.log(z) * math.log1p(-z)
            assert rel(lhs, rhs) < 1e-13

    def test_endpoint_expansion_reuses_zeta_values(self, monkeypatch):
        # the zeta(s - k) of the expansion near z = 1 are memoised: a
        # repeated call returns the same float without recomputing them
        first = polylog(1.5, 0.97, DEFAULT_BUDGET)
        calls = []
        inner = specfun._zeta_euler_maclaurin

        def counted(s, *args):
            calls.append(s)
            return inner(s, *args)

        monkeypatch.setattr(specfun, "_zeta_euler_maclaurin", counted)
        assert polylog(1.5, 0.97, DEFAULT_BUDGET) == first
        assert calls == []
        specfun._zeta_any.cache_clear()
        assert polylog(1.5, 0.97, DEFAULT_BUDGET) == first
        assert calls

    def test_domain(self):
        with pytest.raises(ValueError):
            polylog(1.5, -0.1, DEFAULT_BUDGET)
        with pytest.raises(ValueError):
            polylog(1.5, 1.0 + 1e-9, DEFAULT_BUDGET)
        with pytest.raises(ValueError):
            polylog(1.0, 1.0, DEFAULT_BUDGET)  # diverges
        assert polylog(1.5, 0.0, DEFAULT_BUDGET) == 0.0


class TestGammaUpper:
    def test_elementary_seeds(self):
        assert rel(gamma_upper(1.0, 2.0), math.exp(-2.0)) < 1e-14
        assert rel(gamma_upper(0.5, 1.3),
                   math.sqrt(math.pi) * math.erfc(math.sqrt(1.3))) < 1e-13

    def test_exponential_integral_value(self):
        # Gamma(0, 1) = E_1(1); arbitrary-precision reference
        assert rel(gamma_upper(0.0, 1.0), 0.21938393439552029) < 1e-13

    def test_pinned_negative_parameters(self):
        # arbitrary-precision references
        assert rel(gamma_upper(-1.5, 0.7), 0.3333343440966118) < 1e-13
        assert rel(gamma_upper(-0.25, 2.0), 0.038298023930937256) < 1e-13
        assert rel(gamma_upper(0.3, 0.5), 0.55699483100960655) < 1e-13

    @pytest.mark.parametrize("a,x", [
        (-0.5, 0.3), (-1.0, 1.0), (-2.5, 0.05), (-0.25, 4.0), (-0.75, 2.0),
    ])
    def test_recurrence_consistency(self, a, x):
        # Gamma(a+1, x) = a Gamma(a, x) + x^a e^{-x}
        lhs = gamma_upper(a + 1.0, x)
        rhs = a * gamma_upper(a, x) + x ** a * math.exp(-x)
        assert rel(lhs, rhs) < 1e-12

    def test_rejects_large_parameter(self):
        with pytest.raises(ValueError):
            gamma_upper(1.5, 1.0)
        with pytest.raises(ValueError):
            gamma_upper(0.0, 0.0)


class TestBesselI:
    def test_pinned_values(self):
        # arbitrary-precision references
        assert rel(bessel_i(0.0, 1.0), 1.2660658777520083) < 1e-13
        assert rel(bessel_i(2.0, 7.3), 166.00354780555286) < 1e-13
        assert rel(bessel_i_scaled(1.0 / 3.0, 2500.0),
                   0.0079790672900534678) < 1e-14

    @pytest.mark.parametrize("x", [0.3, 5.0, 40.0])
    def test_half_order_closed_form(self, x):
        expected = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        assert rel(bessel_i(0.5, x), expected) < 1e-13

    def test_scaled_half_order(self):
        x = 500.0
        expected = math.sqrt(2.0 / (math.pi * x)) * 0.5 * (-math.expm1(-2 * x))
        assert rel(bessel_i_scaled(0.5, x), expected) < 1e-12

    def test_scaled_consistency(self):
        for x in (0.7, 30.0, 300.0):
            assert rel(bessel_i(2.0, x),
                       math.exp(x) * bessel_i_scaled(2.0, x)) < 1e-12

    def test_overflow_guidance(self):
        with pytest.raises(OverflowError):
            bessel_i(0.0, 800.0)

    def test_zero_argument(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(1.5, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_i(-0.5, 1.0)
        with pytest.raises(ValueError):
            bessel_i(0.0, 2e4)


def _mp_scaled_i(mpmath, f, j, x):
    """30-digit e^{-x} I_{f+j}(x), with f + j summed exactly."""
    with mpmath.workdps(30):
        return mpmath.besseli(mpmath.mpf(f) + j, x) * mpmath.exp(-x)


class TestBesselILadder:
    """e^{-x} I_{f+j}(x) for a whole ladder of orders at once."""

    FRACTIONS = (0.0, 0.25, 1.0 / 3.0, 0.5, 0.75)
    COUNT = 160

    @pytest.mark.parametrize("f", FRACTIONS)
    def test_matches_scalar_series(self, f):
        # 62 arguments from 0 to 300 against 30-digit references; values
        # below 1e-280 come out as (at most) denormals, never NaN
        mpmath = pytest.importorskip("mpmath")
        xs = np.concatenate([[0.0], np.logspace(-8.0, math.log10(300.0), 61)])
        got = _bessel_i_scaled_ladder(f, self.COUNT, xs)
        assert np.isfinite(got).all()
        for j in (0, 1, 2, 13, 80, 159):
            ref = np.array([float(_mp_scaled_i(mpmath, f, j, x))
                            for x in xs.tolist()])
            shown = ref > 1e-280
            assert (np.abs(got[j] - ref)[shown] / ref[shown]).max() <= 1e-13
            assert (got[j][~shown] <= 1e-279).all()

    @pytest.mark.parametrize("f", FRACTIONS)
    def test_large_argument_carries_the_pivot_error_only(self, f):
        # The downward ratios add nothing to the error of row 0, the
        # ladder's pivot, however large x is: row 0 (Hankel's expansion
        # from x = 20) is within 2e-15 of 30-digit references, and every
        # ratio of a rung to row 0 within 1e-14.
        mpmath = pytest.importorskip("mpmath")
        xs = np.logspace(math.log10(300.0), 4.0, 9)
        got = _bessel_i_scaled_ladder(f, self.COUNT, xs)
        for i, x in enumerate(xs.tolist()):
            pivot = _mp_scaled_i(mpmath, f, 0, x)
            assert float(abs(got[0, i] - pivot) / pivot) <= 2e-15
            for j in (1, 2, 5, 13, 40, 80, 159):
                ref = _mp_scaled_i(mpmath, f, j, x) / pivot
                assert float(abs(got[j, i] / got[0, i] - ref) / ref) <= 1e-14

    def test_against_mpmath(self):
        # x log-spaced over the whole domain plus both sides of the branch
        # at x = 20; nu = f + j up to 256.  Row 0 is within 2e-15 and
        # every rung within 1e-13.
        mpmath = pytest.importorskip("mpmath")
        xs = sorted(set(np.logspace(-3.0, 4.0, 29).tolist()
                        + [19.99, 20.0, 1e3, 1e4]))
        rungs = (0, 1, 2, 3, 7, 20, 40, 99, 100, 160, 255)
        worst_row0 = worst = 0.0
        for f in (0.0, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75):
            got = _bessel_i_scaled_ladder(f, 256, np.array(xs))
            for j in rungs:
                for i, x in enumerate(xs):
                    ref = _mp_scaled_i(mpmath, f, j, x)
                    if ref < 1e-280:
                        continue
                    error = float(abs(got[j, i] - ref) / ref)
                    worst = max(worst, error)
                    if j == 0:
                        worst_row0 = max(worst_row0, error)
        assert worst_row0 <= 2e-15
        assert worst <= 1e-13

    @pytest.mark.parametrize("nu", FRACTIONS + (2.7,))
    def test_single_rung_is_the_pivot(self, nu):
        # bessel_i_scaled(nu) is rung floor(nu) of the ladder of nu's
        # fractional part: for nu < 1 a ladder of one rung, its row 0
        xs = np.array([0.0, 1e-300, 1e-8, 0.5, 3.0, 19.99, 20.0, 80.0,
                       2500.0, 1e4])
        m = math.floor(nu)
        got = _bessel_i_scaled_ladder(nu - m, m + 1, xs)
        assert got.shape == (m + 1, xs.size)
        assert got[m].tolist() == [bessel_i_scaled(nu, x) for x in xs]

    @pytest.mark.parametrize("f", [0.0, 0.25, 0.5])
    def test_rungs_are_bessel_i_scaled_bitwise(self, f):
        # a rung of a long table equals the scalar at its order, whose own
        # ladder stops there and so starts its ratios lower down
        xs = np.array([0.3, 7.0, 19.99, 20.0, 37.3, 209.0, 1e4])
        ladder = _bessel_i_scaled_ladder(f, 200, xs)
        for j in (0, 1, 2, 5, 17, 60, 140, 199):
            assert ladder[j].tolist() == [bessel_i_scaled(f + j, x)
                                          for x in xs.tolist()]

    def test_arguments_are_independent(self):
        # each argument starts its ratios on its own rung, so its rows
        # are the same bits alone as inside a batch of 1,000 random
        # arguments of both branches, with their own f and count; an
        # argument's rows from its own count up are 0
        rng = np.random.default_rng(25)
        xs = np.concatenate([rng.uniform(0.0, 20.0, 500),
                             10.0 ** rng.uniform(math.log10(20.0), 4.0, 500)])
        fs = rng.choice([0.0, 0.25, 1.0 / 3.0, 0.5, 0.75], xs.size)
        counts = rng.integers(1, 80, xs.size)
        batch = _bessel_i_scaled_ladder(fs, counts, xs)
        assert batch.shape == (counts.max(), xs.size)
        for i in range(0, xs.size, 25):
            alone = _bessel_i_scaled_ladder(fs[i], counts[i], xs[i:i + 1])
            assert batch[:counts[i], i].tolist() == alone[:, 0].tolist()
            assert not batch[counts[i]:, i].any()

    def test_tiny_arguments_underflow_to_zero(self):
        got = _bessel_i_scaled_ladder(0.5, 160, np.array([0.0, 1e-300]))
        assert np.isfinite(got).all() and (got >= 0.0).all()
        assert got[-1].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("f,count,x", [
        (-0.25, 4, 1.0),         # order below 0
        (0.5, 257, 1.0),         # top order 256.5 above the cap
        (256.5, 1, 1.0),
        (1.0, 1, 1.0),           # not a fractional part
        (0.0, 0, 1.0),           # empty ladder
        (0.0, 4, -1.0),          # argument below 0
        (0.0, 4, 2e4),           # argument above the cap
        (0.0, 4, math.nan),
    ])
    def test_domain(self, f, count, x):
        with pytest.raises(ValueError):
            _bessel_i_scaled_ladder(f, count, np.array([1.0, x]))
        with pytest.raises(ValueError):        # as one entry of many
            _bessel_i_scaled_ladder([0.5, f], [2, count], np.array([1.0, x]))


class TestBesselJ:
    @pytest.mark.parametrize("x", [1.0, 10.0, 50.0])
    def test_half_order_closed_form(self, x):
        expected = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert rel(bessel_j(0.5, x), expected) < 1e-12

    def test_pinned_values(self):
        # arbitrary-precision references
        assert rel(bessel_j(2.5, 17.0), 0.19351075208626141) < 1e-12
        assert abs(bessel_j(0.0, 2.404825557695773)) < 1e-13  # first zero

    def test_unitarity_sum(self):
        z = 37.0
        total = bessel_j(0.0, z) ** 2 + 2.0 * math.fsum(
            bessel_j(float(m), z) ** 2 for m in range(1, 80))
        assert abs(total - 1.0) < 1e-12

    def test_tiny_high_order(self):
        # deep in the order-dominated tail the Miller descent stays exact
        value = bessel_j(64.0, 3.0)
        assert 0.0 < value < 1e-70

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_j(300.0, 1.0)


class TestBesselJLadder:
    """``_bessel_j_ladder``: every rung ``J_{f+j}`` at every argument."""

    # bessel_j at the commit before the Miller ladder; it must keep these
    # bits.  The four marked values moved branch with the large-argument
    # expansion and the lower series bound, each closer to 30-digit mpmath
    # (old value, then mpmath, in the comment).
    PINNED = [
        ((0.0, 3.0), -0.26005195490193345),
        ((2.5, 5.0), 0.24037720111131738),
        # series -> Miller: 0.2711241071043309, mpmath 0.27112410710433486
        ((1.0 / 3.0, 7.9), 0.2711241071043351),
        ((0.0, 12.5), 0.14688405470042112),
        # Miller -> Hankel: 0.12864266033408137, mpmath 0.12864266033408136
        ((3.0, 37.0), 0.12864266033408142),
        ((2.5, 17.0), 0.1935107520862612),
        # Miller -> Hankel: -0.07707829780857685, mpmath -0.07707829780857900
        ((4.0 / 3.0, 100.0), -0.07707829780857901),
        # Miller -> Hankel: 0.042229681151013755, mpmath 0.042229681151013676
        ((1.0, 209.0), 0.04222968115101367),
        ((40.0, 20.0), 9.902389413744689e-10),
    ]

    @pytest.mark.parametrize("args,value", PINNED)
    def test_bessel_j_keeps_its_bits(self, args, value):
        assert bessel_j(*args) == value

    @pytest.mark.parametrize("f", [0.0, 0.5, 1.0 / 3.0])
    @pytest.mark.parametrize("x", [3.0, 8.01, 12.5, 20.0, 37.3, 209.0,
                                   1000.0])
    def test_rungs_are_bessel_j_bitwise(self, f, x):
        # with count - 1 <= x a rung does not depend on count, nor on the
        # other arguments of its table (here one per branch); bessel_j(nu)
        # reads the ladder of nu's own fractional part, which for f = 1/3
        # differs from f in the last bit once j >= 1
        count = min(int(x) + 1, 40)
        xs = np.array([0.5, x, 15.0, 300.0])
        for j in range(count):
            nu = f + j
            ladder = _bessel_j_ladder(nu - math.floor(nu), count, xs)
            assert ladder[j, 1] == bessel_j(nu, x)

    @staticmethod
    def _scalar_series(nu, x):
        # the per-order loop the array series replaced, kept as reference
        q = 0.5 * x
        term = math.exp(nu * math.log(q) - math.lgamma(nu + 1.0))
        terms = [term]
        peak = abs(term)
        for k in range(400):
            term *= -(q * q) / ((k + 1.0) * (k + 1.0 + nu))
            terms.append(term)
            peak = max(peak, abs(term))
            if abs(term) < 1e-18 * peak:
                return math.fsum(terms)
        raise AssertionError("reference series stalled")

    @pytest.mark.parametrize("f", [0.0, 0.25, 1.0 / 3.0, 0.5])
    def test_series_keeps_the_scalar_loops_bits(self, f):
        xs = np.concatenate([np.logspace(-3.0, math.log10(7.0), 25), [7.0]])
        ladder = _bessel_j_ladder(f, 60, xs)
        for j in range(60):
            for i, x in enumerate(xs.tolist()):
                assert ladder[j, i] == self._scalar_series(f + j, x)

    @pytest.mark.parametrize("f", [0.0, 0.5])
    @pytest.mark.parametrize("z", [8.5, 12.5, 37.0, 50.0])
    def test_long_ladder_matches_per_order(self, f, z):
        # the sum-rule list: orders 0..z + 40, so the descent starts higher
        count = int(z) + 41
        ladder = _bessel_j_ladder(f, count, np.array([z]))
        assert ladder.shape == (count, 1)
        for j, value in enumerate(ladder[:, 0].tolist()):
            assert abs(value - bessel_j(f + j, z)) <= 1e-14

    def test_against_mpmath(self):
        # Absolute error over the whole domain: x log-spaced from 1e-3 to
        # 1e4 plus the branch ends, nu = f + j up to 256.  From x ~ 500 a
        # Miller start at x + 64 sits inside the turning point's Airy
        # layer (1.2e-5 off at x = 1e4); the large-argument branch covers
        # those points.
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        xs = sorted(set(np.logspace(-3.0, 4.0, 15).tolist()
                        + [7.0, 7.01, 8.0, 17.99, 18.0, 20.0, 37.0, 100.0,
                           256.0, 500.0, 1e3, 3e3, 1e4]))
        rungs = (0, 1, 2, 3, 7, 20, 40, 99, 100, 160, 255)
        worst = 0.0
        with mpmath.workdps(30):
            for f in (0.0, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75):
                for j in rungs:
                    for x in xs:
                        ref = mp.besselj(mp.mpf(f) + j, x)
                        worst = max(worst, float(abs(bessel_j(f + j, x)
                                                     - ref)))
        assert worst <= 1e-14

    def test_fractions_per_argument_keep_their_bits(self):
        # a table of several fractional parts and counts is, argument by
        # argument, the table of that argument's own f and count, and 0
        # from its count up
        rng = np.random.default_rng(24)
        xs = np.concatenate([rng.uniform(0.0, 40.0, 36),
                             [3.0, 12.5, 37.0, 209.0]])
        fs = rng.choice([0.0, 1.0 / 3.0, 0.5], xs.size)
        counts = rng.integers(1, 50, xs.size)
        batch = _bessel_j_ladder(fs, counts, xs)
        assert batch.shape == (counts.max(), xs.size)
        for i in range(xs.size):
            alone = _bessel_j_ladder(fs[i], counts[i], xs[i:i + 1])
            assert batch[:counts[i], i].tolist() == alone[:, 0].tolist()
            assert not batch[counts[i]:, i].any()

    @pytest.mark.parametrize("nu", [0.0, 0.25, 2.0, 255.5])
    def test_tiny_arguments(self, nu):
        # (x/2)^nu / Gamma(nu + 1) underflows to 0 for large orders; the
        # series stops there instead of stalling
        for x in (0.0, 1e-300, 1e-30):
            expected = (0.5 * x) ** nu / math.gamma(nu + 1.0) \
                if nu < 100 else 0.0
            assert bessel_j(nu, x) == pytest.approx(expected, rel=1e-13,
                                                    abs=1e-300)

    @pytest.mark.parametrize("f,count,x", [
        (-0.25, 4, 1.0),         # order below 0
        (0.5, 257, 1.0),         # top order 256.5 above the cap
        (1.0, 1, 1.0),           # not a fractional part
        (0.0, 0, 1.0),           # empty ladder
        (0.0, 4, -1.0),          # argument below 0
        (0.0, 4, 2e4),           # argument above the cap
        (0.0, 4, math.nan),
    ])
    def test_domain(self, f, count, x):
        with pytest.raises(ValueError):
            _bessel_j_ladder(f, count, np.array([1.0, x]))
        with pytest.raises(ValueError):        # as one entry of many
            _bessel_j_ladder([0.5, f], [2, count], np.array([1.0, x]))
