"""Radial momentum quadrature and bilateral lattice sums.

Reference values are closed forms evaluated in-test (zeta series, coth,
truncated Gaussian sums), never magic decimals.
"""

import math
import warnings

import numpy as np
import pytest

from bosegas import quadrature
from bosegas.errors import ConvergenceError, QuadratureError
from bosegas.quadrature import (RadialIntegralSpec, _integrate_radial_report,
                                integrate_radial, sum_bilateral)
from bosegas.specfun import AccuracyBudget, DEFAULT_BUDGET, zeta


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestSpecValidation:
    def test_dimension_whitelist(self):
        for d in (0, 5, -1):
            with pytest.raises(ValueError):
                RadialIntegralSpec(dimension=d, integrand=np.exp)

    def test_singular_points_sorted_nonnegative(self):
        with pytest.raises(ValueError):
            RadialIntegralSpec(dimension=3, integrand=np.exp,
                               singular_points=(2.0, 1.0))
        with pytest.raises(ValueError):
            RadialIntegralSpec(dimension=3, integrand=np.exp,
                               singular_points=(-1.0,))

    def test_tail_scale_positive(self):
        with pytest.raises(ValueError):
            RadialIntegralSpec(dimension=1, integrand=np.exp, tail_scale=0.0)


class TestIntegrateRadial:
    def test_exponential_d1(self):
        # Omega_1/(2 pi) * integral of e^-p = (2/2pi) * 1 = 1/pi
        spec = RadialIntegralSpec(dimension=1,
                                  integrand=lambda p: np.exp(-p))
        assert rel(integrate_radial(spec), 1.0 / math.pi) < 1e-12
        assert rel(1.0 / math.pi, 0.3183098861837907) < 1e-15

    def test_planck_moment_d3(self):
        # (1/2 pi^2) * integral p^3/(e^p - 1) = (1/2 pi^2)(pi^4/15) = pi^2/30
        spec = RadialIntegralSpec(dimension=3,
                                  integrand=lambda p: p / np.expm1(p),
                                  singular_points=(0.0,))
        value = integrate_radial(spec)
        series = 6.0 * zeta(4.0)          # integral p^3/(e^p-1) = 6 zeta(4)
        assert rel(value, series / (2.0 * math.pi ** 2)) < 1e-11
        assert rel(value, math.pi ** 2 / 30.0) < 1e-11
        assert rel(math.pi ** 2 / 30.0, 0.3289868133696453) < 1e-15

    def test_occupation_over_energy_d3(self):
        # f = 1/(p(e^p-1)) ~ 1/p^2 at the origin, tamed by the p^2 measure:
        # (1/2 pi^2) * integral p/(e^p - 1) = (1/2 pi^2)(pi^2/6) = 1/12
        spec = RadialIntegralSpec(dimension=3,
                                  integrand=lambda p: 1.0 / np.expm1(p) / p,
                                  singular_points=(0.0,))
        assert rel(integrate_radial(spec), 1.0 / 12.0) < 1e-11

    def test_occupation_d3(self):
        # (1/2 pi^2) * integral p^2/(e^p-1) = (1/2 pi^2) * 2 zeta(3)
        spec = RadialIntegralSpec(dimension=3,
                                  integrand=lambda p: 1.0 / np.expm1(p),
                                  singular_points=(0.0,))
        assert rel(integrate_radial(spec), zeta(3.0) / math.pi ** 2) < 1e-11

    def test_tail_scale_long_decay(self):
        spec = RadialIntegralSpec(dimension=1,
                                  integrand=lambda p: np.exp(-p / 40.0),
                                  tail_scale=40.0)
        assert rel(integrate_radial(spec), 40.0 / math.pi) < 1e-11

    def test_gaussian_d2(self):
        # (2 pi/(2 pi)^2) * integral p e^{-p^2} = (1/2 pi) * (1/2)
        spec = RadialIntegralSpec(dimension=2,
                                  integrand=lambda p: np.exp(-p * p))
        assert rel(integrate_radial(spec), 0.25 / math.pi) < 1e-11

    def test_integrand_that_rejects_arrays_raises(self):
        # the integrand gets arrays only: its own error surfaces at the
        # first call, with no retry one float at a time
        calls = []

        def f(p):
            calls.append(p)
            return math.exp(-p)
        with pytest.raises(TypeError):
            integrate_radial(RadialIntegralSpec(dimension=1, integrand=f))
        assert len(calls) == 1

    def test_column_shaped_output_raises(self):
        # broadcast against the (n,) nodes, an (n, 1) output would be
        # integrated as an (n, n) block: a wrong value and no error
        spec = RadialIntegralSpec(dimension=1,
                                  integrand=lambda p: np.exp(-p)[:, None])
        with pytest.raises(ValueError, match=r"shape \(15, 1\).*\(15,\)"):
            integrate_radial(spec)

    def test_breakpoint_invariance(self):
        def f(p):
            return np.exp(-p) * np.cos(p) ** 2
        plain = RadialIntegralSpec(dimension=3, integrand=f)
        split = RadialIntegralSpec(dimension=3, integrand=f,
                                   singular_points=(1.7,))
        v0, e0 = _integrate_radial_report(plain)
        v1, e1 = _integrate_radial_report(split)
        assert abs(v0 - v1) <= e0 + e1

    def test_linearity(self):
        acc = DEFAULT_BUDGET

        def f(p):
            return np.exp(-p)

        def g(p):
            return p * np.exp(-2.0 * p)

        def fg(p):
            return f(p) + g(p)

        vf = integrate_radial(RadialIntegralSpec(3, f, accuracy=acc))
        vg = integrate_radial(RadialIntegralSpec(3, g, accuracy=acc))
        vfg = integrate_radial(RadialIntegralSpec(3, fg, accuracy=acc))
        assert rel(vfg, vf + vg) < 1e-11

    def test_tolerance_halving_stays_within_estimate(self):
        def f(p):
            return np.exp(-p) / (1.0 + p * p)
        loose = AccuracyBudget(relative_tolerance=1e-6)
        tight = AccuracyBudget(relative_tolerance=5e-7)
        v_loose, e_loose = _integrate_radial_report(
            RadialIntegralSpec(3, f, accuracy=loose))
        v_tight, _ = _integrate_radial_report(
            RadialIntegralSpec(3, f, accuracy=tight))
        assert abs(v_tight - v_loose) <= e_loose

    def test_starved_budget_raises_with_estimate(self):
        # 1/(e^p - 1) in D = 1 is log-divergent at the origin: no budget
        # can converge it, and the cap must surface the partial estimate
        spec = RadialIntegralSpec(
            dimension=1, integrand=lambda p: 1.0 / np.expm1(p),
            accuracy=AccuracyBudget(relative_tolerance=1e-10,
                                    max_subdivisions=8))
        with pytest.raises(QuadratureError) as excinfo:
            integrate_radial(spec)
        assert math.isfinite(excinfo.value.estimate)
        assert math.isfinite(excinfo.value.achieved)

        # The partial estimate is of the full D-dimensional integral (the
        # angular factor included), and ``achieved`` is relative: scaling
        # the integrand scales the estimate and leaves ``achieved`` alone.
        def f(p):
            return np.exp(-p) / (1.0 + p * p)
        starved = AccuracyBudget(relative_tolerance=1e-13,
                                 max_subdivisions=1)
        for dim in (1, 3):
            exact = integrate_radial(RadialIntegralSpec(dim, f))
            raised = []
            for scale in (1.0, 1e6):
                spec = RadialIntegralSpec(dim, lambda p: scale * f(p),
                                          accuracy=starved)
                with pytest.raises(QuadratureError) as excinfo:
                    integrate_radial(spec)
                raised.append(excinfo.value)
            assert rel(raised[0].estimate, exact) < 1e-4
            assert rel(raised[1].estimate, 1e6 * exact) < 1e-4
            assert 1e-13 < raised[0].achieved < 1e-2
            assert rel(raised[1].achieved, raised[0].achieved) < 1e-6

    def test_error_message_prints_relative_numbers(self):
        # The message prints ``achieved`` and the relative target, so it
        # reads the same whatever the integrand's scale or the angular
        # factor.
        for scale in (1.0, 1e6):
            spec = RadialIntegralSpec(
                3, lambda p: scale * np.exp(-p) / (1.0 + p * p),
                accuracy=AccuracyBudget(relative_tolerance=1e-13,
                                        max_subdivisions=1))
            with pytest.raises(QuadratureError) as excinfo:
                integrate_radial(spec)
            exc = excinfo.value
            message = str(exc)
            assert "more than 1 subdivisions" in message
            assert (f"achieved relative error {exc.achieved:.3e} "
                    f"vs target {1e-13:.3e}") in message

    def test_unsplittable_panel_stops_early(self, gk15_panels):
        # A jump at p = 1/3, not a declared breakpoint: bisection freezes
        # the panel holding it at the width floor with more error than
        # rtol = 1e-14 allows, so the rule gives up there rather than
        # splitting the other panels up to the 4000-split cap.
        spec = RadialIntegralSpec(
            dimension=1,
            integrand=lambda p: np.where(p < 1.0 / 3.0, np.exp(-p), 0.0),
            accuracy=AccuracyBudget(relative_tolerance=1e-14,
                                    max_subdivisions=4000))
        with pytest.raises(QuadratureError) as excinfo:
            integrate_radial(spec)
        assert "stalled" in str(excinfo.value)
        assert gk15_panels[0] <= 200
        exact = -math.expm1(-1.0 / 3.0) / math.pi
        assert math.isfinite(excinfo.value.estimate)
        assert rel(excinfo.value.estimate, exact) < 1e-12

    def test_non_finite_integrand_rejected(self):
        def bad(p):
            return np.where(p > 1.0, np.nan, np.exp(-p))
        spec = RadialIntegralSpec(dimension=1, integrand=bad)
        with pytest.raises(ValueError, match="non-finite"):
            integrate_radial(spec)

    @pytest.mark.parametrize("route", ["single", "rows"])
    def test_non_finite_node_is_reported_as_a_plain_radius(self, route):
        # No breakpoints: the only panel is the tail, whose nodes are u in
        # (0, 1) with p = -2 ln u, so the first bad node has u < e^-5.
        def f(p):
            return np.where(p > 10.0, np.inf, np.exp(-p))
        if route == "single":
            with pytest.raises(ValueError) as excinfo:
                integrate_radial(RadialIntegralSpec(
                    dimension=1, integrand=f, tail_scale=2.0))
            error = excinfo.value
        else:
            (error,) = quadrature._integrate_radial_rows(
                1, lambda ps, _rows: f(ps), [((), 2.0)], DEFAULT_BUDGET)
        prefix = "integrand returned a non-finite value at p = "
        assert str(error).startswith(prefix)
        assert float(str(error)[len(prefix):]) > 10.0


def gk15_one_panel(f, a, b):
    """The Gauss-Kronrod rule on one panel from its own call of ``f``: the
    reference the batched evaluation must reproduce bit for bit."""
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    ys = f(center + half * quadrature._XGK)
    resk = float(quadrature._WGK @ ys)
    resg = float(quadrature._WG15 @ ys)
    resasc = float(quadrature._WGK @ np.abs(ys - resk * 0.5)) * abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * half, err


class TestBatchedPanels:
    def test_batch_matches_one_panel_rule_bitwise(self):
        def profile(p):
            return p * p / np.expm1(np.sqrt(p * p + 1.0) / 0.7)
        spans = [(0.0, 0.3), (0.3, 1.0), (1.0, 10.0), (10.0, 10.5),
                 (1e-9, 2e-9)]
        got = quadrature._gk15_batch(profile, spans, float)
        assert got == [gk15_one_panel(profile, a, b) for a, b in spans]

    @pytest.mark.parametrize("points", [(), (0.5, 2.0, 7.0)])
    def test_one_integrand_call_per_split(self, gk15_panels, points):
        lengths = []

        def f(p):
            lengths.append(p.size)
            return np.exp(-p) / (1.0 + p * p)
        spec = RadialIntegralSpec(
            dimension=3, integrand=f, singular_points=points,
            accuracy=AccuracyBudget(relative_tolerance=1e-12))
        integrate_radial(spec)
        # the finite pieces in one call (none without points), the tail
        initial = [15 * len(points)] if points else []
        initial.append(15)
        splits = (gk15_panels[0] - len(points) - 1) // 2
        assert splits > 0
        assert lengths == initial + [30] * splits
        assert sum(lengths) == 15 * gk15_panels[0]


class TestBatchedRows:
    """``_integrate_radial_rows``: many integrals refined in lockstep."""

    # rows of exp(-p / s) / (1 + p^2), with s the row's decay length
    DECAYS = np.array([0.3, 1.0, 4.0, 25.0])

    def rows(self, decays, acc=AccuracyBudget(relative_tolerance=1e-12)):
        grids = [((0.5 * s, 2.0 * s), 2.0 * s) for s in decays]
        scales = np.asarray(decays)

        def integrand(ps, rows):
            return np.exp(-ps / scales[rows]) / (1.0 + ps * ps)

        return quadrature._integrate_radial_rows(3, integrand, grids, acc)

    def test_rows_agree_with_single_integrals(self):
        for s, got in zip(self.DECAYS, self.rows(self.DECAYS)):
            spec = RadialIntegralSpec(
                dimension=3, integrand=lambda p, s=s: np.exp(-p / s)
                / (1.0 + p * p), singular_points=(0.5 * s, 2.0 * s),
                accuracy=AccuracyBudget(relative_tolerance=1e-12),
                tail_scale=2.0 * s)
            assert abs(got / integrate_radial(spec) - 1.0) < 1e-11

    def test_row_bytes_do_not_depend_on_the_batch(self):
        batch = self.rows(self.DECAYS)
        for s, got in zip(self.DECAYS, batch):
            assert self.rows([s]) == [got]
        assert self.rows(self.DECAYS[::-1]) == batch[::-1]

    def test_failures_stay_in_their_rows(self):
        grids = [((), 2.0), ((), 2.0), ((), 2.0)]

        def integrand(ps, rows):
            # row 1 blows up below p = 1; row 2 is too rough for 8 splits
            values = np.exp(-ps)
            values = np.where((rows == 1) & (ps < 1.0), np.inf, values)
            return np.where(rows == 2, values * (2.0 + np.sign(
                np.sin(50.0 * ps))), values)

        acc = AccuracyBudget(relative_tolerance=1e-12, max_subdivisions=8)
        with warnings.catch_warnings():
            # the infinite row is tested before any reduction warns
            warnings.simplefilter("error")
            ok, blown, rough = quadrature._integrate_radial_rows(
                1, integrand, grids, acc)
        assert abs(ok / self.single(lambda p: np.exp(-p), acc) - 1.0) < 1e-11
        assert isinstance(blown, ValueError)
        assert str(blown).startswith(
            "integrand returned a non-finite value at p = ")
        assert isinstance(rough, QuadratureError)
        assert "needed more than 8 subdivisions" in str(rough)

    @staticmethod
    def single(f, acc):
        return integrate_radial(RadialIntegralSpec(
            dimension=1, integrand=f, accuracy=acc, tail_scale=2.0))


class TestSumBilateral:
    def test_matsubara_lorentzian(self):
        # sum 1/(1 + 4 pi^2 k^2) = (1/2) coth(1/2)
        total = sum_bilateral(
            lambda k: 1.0 / (1.0 + 4.0 * math.pi ** 2 * k * k))
        assert rel(total, 0.5 / math.tanh(0.5)) < 1e-11

    def test_gaussian(self):
        total = sum_bilateral(lambda k: np.exp(-k * k))
        direct = 1.0 + 2.0 * math.fsum(
            math.exp(-float(k) ** 2) for k in range(1, 10))
        assert rel(total, direct) < 1e-12

    def test_single_term(self):
        total = sum_bilateral(lambda k: np.where(k == 0.0, 3.25, 0.0))
        assert total == 3.25

    def test_asymmetric_summand(self):
        # sum e^{-|k|} * 2^{-sign tweak}: compare against direct truncation
        def term(k):
            return np.exp(-np.abs(k)) / (2.0 + np.tanh(k))
        oracle = math.fsum(math.exp(-abs(k)) / (2.0 + math.tanh(k))
                           for k in range(-80, 81))
        assert rel(sum_bilateral(term), oracle) < 1e-11

    def test_power_law_tail(self):
        # sum 1/(4 + k^2) = (pi/2) coth(2 pi) had better engage the
        # Euler-Maclaurin tail (raw 1/k^2 truncation converges far too slowly)
        total = sum_bilateral(lambda k: 1.0 / (4.0 + k * k))
        expected = 0.5 * math.pi / math.tanh(2.0 * math.pi)
        assert rel(total, expected) < 1e-10

    def test_divergent_decay_rejected(self):
        with pytest.raises(ConvergenceError):
            sum_bilateral(lambda k: 1.0 / (1.0 + abs(k)),
                          AccuracyBudget(relative_tolerance=1e-10,
                                         max_terms=2000))

    def test_summand_that_rejects_arrays_raises(self):
        # the summand gets the (nk, 1) column of k, never a float
        with pytest.raises(TypeError):
            sum_bilateral(lambda k: math.exp(-k * k))
        with pytest.raises(ValueError, match="truth value"):
            sum_bilateral(lambda k: 3.25 if k == 0.0 else 0.0)

    @pytest.mark.parametrize("widths", [(1.0,), (1.0, 2.0)])
    def test_transposed_output_raises(self, widths):
        # (n, nk) instead of (nk, n): one row per sum, not per k; the
        # first call takes 68 values of k
        def term(k):
            return np.exp(-np.abs(k) / np.array(widths)).T
        with pytest.raises(ValueError, match=r"shape \(%d, 68\).*\(68, 1\)"
                           % len(widths)):
            sum_bilateral(term)


def frequency_terms(beta, omega, mu):
    """Re[1/((omega_k + i mu)^2 + omega^2)], omega_k = 2 pi k / beta,
    elementwise over broadcastable beta, omega and mu."""
    def term(k):
        wk = 2.0 * math.pi / beta * k
        re_den = omega * omega + wk * wk - mu * mu
        return re_den / (re_den * re_den + 4.0 * wk * wk * mu * mu)
    return term


def two_channel_coth(beta, omega, mu):
    return beta / (4.0 * omega) * (1.0 / np.tanh(0.5 * beta * (omega - mu))
                                   + 1.0 / np.tanh(0.5 * beta * (omega + mu)))


class TestElementwiseSums:
    """A summand mapping a column of k to (nk, n) values gives n sums."""

    ACC = AccuracyBudget(relative_tolerance=5e-11)

    def test_batch_is_bytewise_the_single_sums(self):
        rng = np.random.default_rng(7)
        beta = rng.uniform(0.2, 5.0, 40)
        omega = rng.uniform(0.5, 3.0, 40)
        mu = omega * rng.uniform(0.0, 0.95, 40)
        batch = sum_bilateral(frequency_terms(beta, omega, mu), self.ACC)
        assert batch.shape == (40,)
        for i in range(40):
            one = sum_bilateral(
                frequency_terms(beta[i:i + 1], omega[i:i + 1], mu[i:i + 1]),
                self.ACC)
            assert isinstance(one, float)
            assert np.float64(one).tobytes() == batch[i].tobytes()
            # float parameters give one (nk, 1) column of values, and
            # the same bytes
            scalar = sum_bilateral(frequency_terms(
                float(beta[i]), float(omega[i]), float(mu[i])), self.ACC)
            assert np.float64(scalar).tobytes() == batch[i].tobytes()

    def test_refined_tails_are_bytewise_the_single_sums(self):
        # e^(-|k|/L) for L up to 60 puts the tail integrand's peak inside
        # [1e-12, 1] in v, so its tails refine to different levels
        lengths = np.geomspace(1.0, 60.0, 12)
        batch = sum_bilateral(lambda k: np.exp(-np.abs(k) / lengths),
                              self.ACC)
        for i, length in enumerate(lengths):
            one = sum_bilateral(lambda k: np.exp(-np.abs(k) / length),
                                self.ACC)
            assert np.float64(one).tobytes() == batch[i].tobytes()
            assert rel(one, 1.0 / math.tanh(0.5 / length)) < 1e-9

    def test_frequency_sum_matches_two_channel_coth(self):
        omega = np.linspace(0.3, 4.0, 25)
        mu = omega * np.linspace(0.0, 0.95, 25)[::-1]
        for beta in (0.3, 1.0, 4.0):
            sums = sum_bilateral(frequency_terms(beta, omega, mu))
            exact = two_channel_coth(beta, omega, mu)
            assert np.max(np.abs(sums / exact - 1.0)) < 1e-11

    def test_divergent_element_raises_with_array_estimate(self):
        # columns: sum 1/(1 + k^2) = pi coth(pi), sum 1/(1 + |k|) diverges,
        # sum e^(-k^2)
        def term(k):
            return np.hstack([1.0 / (1.0 + k * k), 1.0 / (1.0 + np.abs(k)),
                              np.exp(-k * k)])
        acc = AccuracyBudget(relative_tolerance=1e-10, max_terms=2000)
        with pytest.raises(ConvergenceError) as info:
            sum_bilateral(term, acc)
        estimate, achieved = info.value.estimate, info.value.achieved
        assert estimate.shape == achieved.shape == (3,)
        # the convergent sums report their last candidates
        assert rel(estimate[0], math.pi / math.tanh(math.pi)) < 1e-7
        gauss = 1.0 + 2.0 * math.fsum(math.exp(-float(k) ** 2)
                                      for k in range(1, 10))
        assert rel(estimate[2], gauss) < 1e-14
        # the divergent one names its failure in its own element
        assert np.isfinite(estimate[1]) and estimate[1] > 0.0
        assert achieved[1] > acc.relative_tolerance

    def test_property_elementwise_equals_single_and_coth(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        floats = st.floats

        @hypothesis.settings(max_examples=25, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(st.lists(
            st.tuples(floats(0.2, 5.0), floats(0.3, 4.0), floats(0.0, 0.95)),
            min_size=1, max_size=12))
        def check(points):
            beta, omega, frac = (np.array(c) for c in zip(*points))
            mu = frac * omega
            batch = np.atleast_1d(
                sum_bilateral(frequency_terms(beta, omega, mu), self.ACC))
            singles = np.array([sum_bilateral(
                frequency_terms(b, w, m), self.ACC)
                for b, w, m in zip(beta, omega, mu)])
            assert batch.tobytes() == singles.tobytes()
            exact = two_channel_coth(beta, omega, mu)
            assert np.max(np.abs(batch / exact - 1.0)) < 1e-10

        check()
