"""Radial momentum quadrature and bilateral lattice sums.

Reference values are closed forms evaluated in-test (zeta series, coth,
truncated Gaussian sums), never magic decimals.
"""

import math

import numpy as np
import pytest

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

    def test_scalar_only_integrand(self):
        # non-vectorizable integrands must work through the fallback path
        def f(p):
            if p < 1.0:            # array input would raise here
                return math.exp(-p)
            return math.exp(-p)
        spec = RadialIntegralSpec(dimension=1, integrand=f)
        assert rel(integrate_radial(spec), 1.0 / math.pi) < 1e-11

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

    def test_non_finite_integrand_rejected(self):
        def bad(p):
            return np.where(p > 1.0, np.nan, np.exp(-p))
        spec = RadialIntegralSpec(dimension=1, integrand=bad)
        with pytest.raises(ValueError, match="non-finite"):
            integrate_radial(spec)


class TestSumBilateral:
    def test_matsubara_lorentzian(self):
        # sum 1/(1 + 4 pi^2 k^2) = (1/2) coth(1/2)
        total = sum_bilateral(
            lambda k: 1.0 / (1.0 + 4.0 * math.pi ** 2 * k * k))
        assert rel(total, 0.5 / math.tanh(0.5)) < 1e-11

    def test_gaussian(self):
        total = sum_bilateral(lambda k: math.exp(-k * k))
        direct = 1.0 + 2.0 * math.fsum(
            math.exp(-float(k) ** 2) for k in range(1, 10))
        assert rel(total, direct) < 1e-12

    def test_single_term(self):
        total = sum_bilateral(lambda k: 3.25 if k == 0.0 else 0.0)
        assert total == 3.25

    def test_asymmetric_summand(self):
        # sum e^{-|k|} * 2^{-sign tweak}: compare against direct truncation
        def term(k):
            return math.exp(-abs(k)) / (2.0 + math.tanh(k))
        oracle = math.fsum(term(float(k)) for k in range(-80, 81))
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
