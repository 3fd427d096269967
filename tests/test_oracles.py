"""Identity-check layer: the lattice must pass, and its one knowingly
unsatisfiable comparison must fail honestly with the measured value
recorded.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from bosegas import oracles
from bosegas.oracles import (FAMILIES, OracleReport, check_bessel_identities,
                             check_f_n_alpha, check_log_sum_derivative,
                             check_matsubara_sum, check_poisson_resummation,
                             run_suite)
from bosegas.quadrature import RadialIntegralSpec, integrate_radial
from bosegas.specfun import _bessel_i_scaled_ladder, _bessel_j_ladder

# Every run_suite() report's relative_error and passed, as first recorded.
RECORDS = Path(__file__).parent / "data" / "oracle_records.json"


def rung(ladder, nu, xs):
    """Order ``nu`` at every argument of ``xs``, from one ladder call."""
    m = math.floor(nu)
    return ladder(nu - m, m + 1, xs)[m]


@pytest.fixture(scope="module")
def suite():
    return run_suite()


class TestSuite:
    def test_lattice_size_and_all_pass(self, suite):
        assert len(suite) == 46
        failed = [r for r in suite if not r.passed]
        assert failed == []

    def test_report_invariant(self, suite):
        for r in suite:
            assert isinstance(r, OracleReport)
            assert r.passed == (r.relative_error <= r.tolerance)
            assert math.isfinite(r.lhs) and math.isfinite(r.rhs)

    def test_families_present(self, suite):
        names = {r.identity_name for r in suite}
        assert names == {
            "laplace_bessel_resummation",
            "matsubara_frequency_sum",
            "log_determinant_derivative_sum",
            "poisson_resummation",
            "bessel_sum_rules",
            "derivative_jump_routes",
        }

    def test_selection_filters_and_orders(self):
        logsum_only = run_suite(["logsum"])
        assert len(logsum_only) == 4
        assert all(r.identity_name == "log_determinant_derivative_sum"
                   for r in logsum_only)
        pair = run_suite(["bessel", "laplace"])
        assert [r.identity_name for r in pair] == (
            ["bessel_sum_rules"] * 3 + ["laplace_bessel_resummation"] * 5)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            run_suite(["logsum", "nope"])

    def test_deterministic(self):
        a = run_suite(["poisson"])
        b = run_suite(["poisson"])
        assert [(r.lhs, r.rhs, r.relative_error) for r in a] == \
               [(r.lhs, r.rhs, r.relative_error) for r in b]

    def test_families_constant(self):
        assert FAMILIES == ("laplace", "matsubara", "logsum", "poisson",
                            "bessel", "jump")

    def test_precision_ratchet(self, suite):
        # Each report's error may not grow past 10x its recorded value
        # (floor 1e-16), and no report may change its verdict.
        records = json.loads(RECORDS.read_text())
        assert len(records) == len(suite)
        for record, report in zip(records, suite):
            assert report.identity_name == record["identity_name"]
            assert report.passed == record["passed"]
            assert report.relative_error <= 10.0 * max(
                record["relative_error"], 1e-16), record


class TestMatsubara:
    def test_closed_form_agreement(self):
        rep = check_matsubara_sum(1.0, 1.0, 0.0)
        expected = 0.5 / math.tanh(0.5)
        assert rep.passed
        assert abs(rep.rhs - expected) / expected < 1e-15
        assert abs(rep.lhs - expected) / expected < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            check_matsubara_sum(1.0, 0.5, 0.6)
        with pytest.raises(ValueError):
            check_matsubara_sum(-1.0, 1.0, 0.0)


class TestLaplace:
    def test_coth_and_finite_part(self):
        rep = check_f_n_alpha(2.0, 1.5)
        assert rep.passed
        p = rep.parameters
        assert p["finite_part_expected"] == (0.5 - 2.0) / 12.0
        assert p["finite_part_error"] <= 1e-4
        assert p["max_single_transform_error"] < 1e-9

    def test_full_order_finite_part_vanishes(self):
        rep = check_f_n_alpha(1.0, 2.0)
        assert rep.passed
        assert abs(rep.parameters["finite_part_fit"]) < 1e-4

    # (n, alpha, order_cap)
    LATTICE = [
        (1.0, 1.5, 39), (1.0, 2.0, 29), (1.0, 3.0, 21),
        (2.0, 1.5, 77), (2.0, 2.0, 57), (2.0, 3.0, 42),
        (3.0, 1.5, 116), (3.0, 2.0, 85), (3.0, 3.0, 63),
        (4.0, 1.5, 154), (4.0, 2.0, 113), (4.0, 3.0, 84),
        # non-integer n: ladders of step 2 (n = 2.5), one per order (pi)
        (2.5, 2.0, 71), (math.pi, 2.0, 89),
    ]

    @pytest.mark.parametrize("n,alpha,orders", LATTICE)
    def test_every_transform_is_tight(self, n, alpha, orders):
        rep = check_f_n_alpha(n, alpha)
        assert rep.passed
        assert rep.parameters["order_cap"] == orders
        assert rep.parameters["orders_summed"] <= orders
        assert rep.parameters["max_single_transform_error"] <= 1e-12
        assert abs(rep.lhs - rep.rhs) / rep.rhs <= 1e-12

    @pytest.mark.parametrize("n,alpha,summed", [
        (1.0, 2.0, 27), (4.0, 1.5, 145), (1.0, 1.01, 245)])
    def test_orders_summed_counts_the_orders_integrated(self, n, alpha,
                                                        summed, monkeypatch):
        # every order is one row of one batch: count the rows integrated
        batches = []
        inner = oracles._integrate_radial_rows

        def recording(dimension, integrand, grids, acc):
            batches.append(len(grids))
            return inner(dimension, integrand, grids, acc)

        monkeypatch.setattr(oracles, "_integrate_radial_rows", recording)
        rep = check_f_n_alpha(n, alpha)
        assert batches == [summed + 1]
        assert rep.parameters["orders_summed"] == summed
        assert rep.parameters["order_cap"] > summed

    @pytest.mark.parametrize("n,alpha,m_top", [(1.0, 2.0, 27),
                                               (3.0, 1.5, 109)])
    def test_batched_orders_match_single_integrals(self, n, alpha, m_top):
        decay = alpha - 1.0
        batch = oracles._laplace_bessel_quads(n, alpha, m_top)
        assert len(batch) == m_top + 1
        for m, got in enumerate(batch):
            spec = RadialIntegralSpec(
                1, lambda qs, nu=m / n: np.exp(-decay * qs) * rung(
                    _bessel_i_scaled_ladder, nu, qs),
                singular_points=(1.0,), accuracy=oracles._ORACLE_ACC,
                tail_scale=4.0 / decay)
            single = math.pi * integrate_radial(spec)
            assert abs(got / single - 1.0) <= 1e-13

    def test_node_table_is_local_to_one_check(self):
        first = (2.0, 1.5)
        second = (3.0, 2.0)
        forward = [repr(check_f_n_alpha(*args)) for args in (first, second)]
        backward = [repr(check_f_n_alpha(*args)) for args in (second, first)]
        assert forward == backward[::-1]

    def test_bessel_caps_near_alpha_one(self):
        # alpha = 1.01 stops at order 245 of its 262, below the order cap
        assert check_f_n_alpha(1.0, 1.01).passed
        with pytest.raises(ValueError, match="order"):
            check_f_n_alpha(1.0, 1.008)      # needs order 257
        with pytest.raises(ValueError, match="argument"):
            check_f_n_alpha(1.0, 1.001)      # tail nodes beyond q = 1e4

    def test_domain(self):
        with pytest.raises(ValueError):
            check_f_n_alpha(0.5, 2.0)
        with pytest.raises(ValueError):
            check_f_n_alpha(1.0, 1.0)


class TestDerivativeJump:
    @pytest.fixture
    def reports(self, suite):
        return [r for r in suite
                if r.identity_name == "derivative_jump_routes"]

    def test_family_rows(self, reports):
        assert [(r.parameters["regime"], r.parameters["density"])
                for r in reports] == [("rel", 1e2), ("nr", 1.0)]
        for r in reports:
            assert r.passed
            assert r.parameters["jump_error"] <= 1e-5
            assert r.parameters["left_derivative_error"] <= 1e-10

    def test_relativistic_row_is_the_closed_form(self, reports):
        rep = reports[0]
        tc = rep.parameters["critical_temperature"]
        assert abs(rep.lhs / (math.pi * tc / 9.0) - 1.0) < 1e-7


class TestLogSum:
    def test_normalization(self):
        rep = check_log_sum_derivative(1.0, 2.0)
        assert rep.passed
        # closed form: (beta/2) coth(beta omega / 2)
        assert abs(rep.lhs - 0.5 / math.tanh(1.0)) < 1e-14

    def test_domain(self):
        with pytest.raises(ValueError):
            check_log_sum_derivative(0.0, 1.0)


class TestPoisson:
    def test_low_t_limit(self):
        rep = check_poisson_resummation(1.0, 0.01, 0.0)
        assert rep.passed
        assert abs(rep.lhs - 1.0) < 1e-6    # winding sum collapses to nu = 0

    def test_charged_case(self):
        rep = check_poisson_resummation(2.0, 1.0, 0.25)
        assert rep.passed

    def test_domain(self):
        with pytest.raises(ValueError):
            check_poisson_resummation(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            check_poisson_resummation(1.0, 1.0, math.inf)


class TestBessel:
    def test_full_order_passes(self):
        rep = check_bessel_identities(12.5, 1.0, 10.0)
        assert rep.passed
        assert abs(rep.parameters["plateau_measured"] - 1.0) < 1e-10

    def test_fractional_order_fails_honestly(self):
        # the order sum saturates at n copies of the full-order value, so
        # the fixed target 1 is unsatisfiable for n != 1: the check must
        # report the failure and the measured plateau, not mask it
        rep = check_bessel_identities(12.5, 2.0, 10.0)
        assert not rep.passed
        p = rep.parameters
        assert abs(p["plateau_measured"] - 2.0) < 1e-6
        assert "plateau_note" in p
        # the per-term Weber identity itself holds at any order
        assert max(p["weber_errors"]) < 1e-8

    def test_plateau_tracks_n(self):
        for n in (1.0, 3.0):
            rep = check_bessel_identities(3.0, n, 10.0)
            assert abs(rep.parameters["plateau_measured"] - n) < 1e-5

    @pytest.mark.parametrize("n", [1.0, 2.0])
    @pytest.mark.parametrize("a_r", [5.0, 20.0])
    def test_batched_weber_orders_match_single_integrals(self, n, a_r):
        nus = [m / n for m in range(4)]
        for nu, got in zip(nus, oracles._weber_quads(nus, a_r)):
            def integrand(ps, nu=nu):
                p = np.where(ps <= 9.5, ps, 0.0)
                return p * np.exp(-p * p) * rung(_bessel_j_ladder, nu,
                                                 a_r * p) ** 2
            spec = RadialIntegralSpec(1, integrand, singular_points=(1.0, 9.5),
                                      accuracy=oracles._ORACLE_ACC)
            single = math.pi * integrate_radial(spec)
            assert abs(got / single - 1.0) <= 1e-13

    def test_domain(self):
        with pytest.raises(ValueError):
            check_bessel_identities(0.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            check_bessel_identities(3.0, 5.0, 10.0)
        with pytest.raises(ValueError):
            check_bessel_identities(3.0, 1.0, 23.0)
