"""Release acceptance suite: one test per headline criterion.

Each test prints the measured values next to their targets, so a verbose
run gives one pass/fail line per criterion with the evidence attached.
Reference values are computed in-test from independent routes (tail-bounded
series, direct quadrature of elementary integrands, closed forms); none are
copied from the library under test.

The single expected failure (criterion 2b) is marked strict-xfail: the
fractional-order saturation target is unsatisfiable as stated -- the order
sum provably saturates at n copies of the full-order value -- and the
check reports the measured plateau instead of masking it.
"""

import json
import math

import numpy as np
import pytest

import bosegas
from bosegas.condensate import (ChargeSpec, Regime, critical_temperature,
                                discontinuity_estimate,
                                mutual_info_at_fixed_charge,
                                solve_chemical_potential)
from bosegas.oracles import check_bessel_identities, check_f_n_alpha, run_suite
from bosegas.quadrature import RadialIntegralSpec, integrate_radial
from bosegas.specfun import (AccuracyBudget, DEFAULT_BUDGET, EULER_GAMMA,
                             gamma_upper, polylog, zeta)
from bosegas.thermo import (FieldKind, Geometry, ModelParams, ThermalPoint,
                            high_t_expansion, mutual_info_charged,
                            mutual_info_neutral, zero_t_entanglement)


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def zeta_series_oracle(s: float, n: int = 200_000) -> float:
    """Tail-bounded series: direct sum plus Euler-Maclaurin tail.

    The truncation error of the correction used here is below
    |s(s+1)...(s+4)| n^(-s-5), i.e. ~1e-27 at s = 3/2, n = 2e5.
    """
    direct = math.fsum(k ** (-s) for k in range(1, n))
    nf = float(n)
    return (direct
            + nf ** (1.0 - s) / (s - 1.0)
            + 0.5 * nf ** (-s)
            + s * nf ** (-s - 1.0) / 12.0
            - s * (s + 1.0) * (s + 2.0) * nf ** (-s - 3.0) / 720.0)


class TestCriterion01SpecialFunctionOracles:
    def test_criterion_01_polylog_zeta_gamma(self):
        series = zeta_series_oracle(1.5)
        z_lib = zeta(1.5)
        li_lib = polylog(1.5, 1.0, DEFAULT_BUDGET)
        print(f"\n  zeta(3/2): library {z_lib!r} vs series {series!r} "
              f"(rel {rel(z_lib, series):.2e})")
        print(f"  polylog(3/2, 1): {li_lib!r} (rel {rel(li_lib, series):.2e})")
        assert rel(z_lib, series) < 1e-12
        assert rel(li_lib, series) < 1e-12

        # Gamma(0, 1) = int_0^inf e^{-(u+1)}/(u+1) du, by the quadrature
        # engine itself (x pi to undo the one-dimensional angular measure)
        quad = math.pi * integrate_radial(RadialIntegralSpec(
            1, lambda u: np.exp(-(u + 1.0)) / (u + 1.0),
            accuracy=AccuracyBudget(relative_tolerance=1e-12)))
        g_lib = gamma_upper(0.0, 1.0)
        print(f"  Gamma(0,1): library {g_lib!r} vs quadrature {quad!r} "
              f"vs pinned 0.21938393439552")
        assert rel(g_lib, quad) < 1e-10
        assert rel(g_lib, 0.21938393439552) < 1e-10
        assert rel(quad, 0.21938393439552) < 1e-10


class TestCriterion02IdentitySuite:
    def test_criterion_02_identity_suite_passes(self):
        reports = run_suite()
        failed = [r for r in reports if not r.passed]
        by_name: dict[str, int] = {}
        for r in reports:
            by_name[r.identity_name] = by_name.get(r.identity_name, 0) + 1
        print(f"\n  suite rows: {by_name} (total {len(reports)})")
        worst = max(reports, key=lambda r: r.relative_error / r.tolerance)
        print(f"  worst margin: {worst.identity_name} "
              f"{worst.relative_error / worst.tolerance:.3f} of tolerance")
        assert by_name["matsubara_frequency_sum"] == 27   # 3x3x3 lattice
        assert failed == []

        # finite part (1/12)(1/n - n) by epsilon-fit, directly at n = 1..3
        for n in (1.0, 2.0, 3.0):
            rep = check_f_n_alpha(n, 2.0)
            err = rep.parameters["finite_part_error"]
            print(f"  finite part n={n:g}: fit "
                  f"{rep.parameters['finite_part_fit']:+.9f} vs "
                  f"{rep.parameters['finite_part_expected']:+.9f} "
                  f"(err {err:.2e})")
            assert err <= 1e-4

    @pytest.mark.xfail(
        strict=True,
        reason="the fractional-order saturation comparison states that the "
               "order sum e^{-x} sum_m I_(|m|/n)(x) saturates at the "
               "full-order value independent of n; the sum provably "
               "saturates at n copies of it (measured plateau 2.0000000000 "
               "at n = 2), so the check as stated cannot pass for n != 1 "
               "and reports the measured plateau as a finding instead")
    def test_criterion_02b_fractional_order_saturation_as_stated(self):
        rep = check_bessel_identities(12.5, 2.0, 10.0)
        print(f"\n  n=2 plateau measured: "
              f"{rep.parameters['plateau_measured']!r}")
        assert rep.passed

    def test_criterion_02b_fractional_order_measured_truth(self):
        # positive companion to the xfail above: the measured plateau is
        # exactly n copies of the full-order value, and the per-order
        # transform identity itself holds at any n
        rep = check_bessel_identities(12.5, 2.0, 10.0)
        plateau = rep.parameters["plateau_measured"]
        print(f"\n  n=2 plateau {plateau!r} vs n copies = 2 "
              f"(dev {abs(plateau - 2.0):.2e}); "
              f"weber max err {max(rep.parameters['weber_errors']):.2e}")
        assert abs(plateau - 2.0) < 1e-6
        assert max(rep.parameters["weber_errors"]) < 1e-8
        assert "plateau_note" in rep.parameters


class TestCriterion03NeutralMasslessBoundary:
    def test_criterion_03_boundary_thermal_part(self):
        # m -> 0+: boundary part -> pi A T^2 / 36 (zeta(2) integral)
        params = ModelParams(1e-8, 3, 1.0, FieldKind.NEUTRAL_REAL)
        rep = mutual_info_neutral(
            params, Geometry(), ThermalPoint(1.0),
            AccuracyBudget(relative_tolerance=1e-10))
        target = math.pi / 36.0
        print(f"\n  boundary {rep.boundary_thermal_part!r} vs pi/36 = "
              f"{target!r} (rel {rel(rep.boundary_thermal_part, target):.2e})")
        assert rel(rep.boundary_thermal_part, target) < 1e-6


class TestCriterion04ConformalLimits:
    def test_criterion_04_d1_vacuum_log(self):
        # D = 1, Lambda/m = 1e4: (1/6) ln(Lambda/m) with the -gamma/12 offset
        params = ModelParams(1.0, 1, 1e4, FieldKind.NEUTRAL_REAL)
        full = zero_t_entanglement(params, Geometry())
        leading = math.log(1e4) / 6.0
        offset = leading - EULER_GAMMA / 12.0
        print(f"\n  leading log {leading!r}; with offset {offset!r}; "
              f"full regulated value {full!r}")
        assert rel(full, offset) < 1e-8
        assert abs(full - leading) < 0.05       # offset itself is ~0.048

    def test_criterion_04_d1_thermal_conformal(self):
        # m beta = 1e-3: the UV-finite entropy combination -> (pi/6)/(m beta)
        params = ModelParams(1.0, 1, 1e4, FieldKind.NEUTRAL_REAL)
        rep = mutual_info_neutral(params, Geometry(), ThermalPoint(1000.0))
        target = (math.pi / 6.0) * 1000.0
        print(f"\n  I_m {rep.mutual_information!r} vs (pi/6)/(m beta) = "
              f"{target!r} (rel {rel(rep.mutual_information, target):.2e})")
        assert rel(rep.mutual_information, target) < 0.01


class TestCriterion05ChargedNeutralReduction:
    def test_criterion_05_mu_zero_doubling(self):
        worst = 0.0
        for m in (0.5, 1.0, 2.0):
            for t in (0.3, 1.0, 4.0):
                pt = ThermalPoint(t)
                rep_n = mutual_info_neutral(
                    ModelParams(m, 3, 100.0, FieldKind.NEUTRAL_REAL),
                    Geometry(), pt)
                rep_c = mutual_info_charged(
                    ModelParams(m, 3, 100.0, FieldKind.CHARGED_COMPLEX),
                    Geometry(), pt)
                for name in ("zero_t_part", "boundary_thermal_part",
                             "extensive_thermal_part", "geometric_entropy",
                             "mutual_information"):
                    worst = max(worst, rel(getattr(rep_c, name),
                                           2.0 * getattr(rep_n, name)))
        print(f"\n  worst charged-vs-2x-neutral deviation over the "
              f"(m, T) lattice: {worst:.2e}")
        assert worst < 1e-10


class TestCriterion06HighTExpansion:
    def test_criterion_06_expansion_vs_quadrature(self):
        params = ModelParams(1.0, 3, 10.0, FieldKind.CHARGED_COMPLEX)
        worst = 0.0
        for mu in (0.0, 0.5, 1.0):
            pt = ThermalPoint(50.0, chemical_potential=mu)
            boundary = mutual_info_charged(
                params, Geometry(), pt).boundary_thermal_part
            j_quad = boundary * 3.0 / math.pi
            j_exp = high_t_expansion(pt, 1.0)
            dev = rel(j_exp, j_quad)
            print(f"\n  mu={mu}: expansion {j_exp!r} vs quadrature "
                  f"{j_quad!r} (rel {dev:.2e})")
            worst = max(worst, dev)
        assert worst <= 2e-3


class TestCriterion07NRCondensation:
    def test_criterion_07_tc_power_law_plateau(self):
        charge = ChargeSpec(1.0, Regime.NON_RELATIVISTIC)
        tc = critical_temperature(charge, 1.0)
        print(f"\n  T_C = {tc!r} vs 3.3124 +/- 1e-3")
        assert abs(tc - 3.3124) <= 1e-3

        worst_pl = 0.0
        for frac in (0.3, 0.55, 0.8):
            state = solve_chemical_potential(frac * tc, charge, 1.0)
            worst_pl = max(worst_pl, rel(state.excited_density, frac ** 1.5))
        print(f"  power-law worst deviation below T_C: {worst_pl:.2e}")
        assert worst_pl < 1e-8

        above = [solve_chemical_potential(f * tc, charge, 1.0)
                 for f in (1.3, 2.9)]
        plateau_dev = max(abs(s.excited_density - 1.0) for s in above)
        print(f"  excited-density plateau above T_C: dev {plateau_dev:.2e}")
        assert plateau_dev < 1e-8

        params = ModelParams(1.0, 3, 1e4, FieldKind.CHARGED_COMPLEX)
        reps = [mutual_info_at_fixed_charge(params, Geometry(), f * tc,
                                            charge)
                for f in (1.3, 2.9)]
        im_dev = rel(reps[0].mutual_information, reps[1].mutual_information)
        print(f"  I_m plateau above T_C: rel dev {im_dev:.2e}")
        assert im_dev < 1e-8


class TestCriterion08NRDiscontinuity:
    def test_criterion_08_jump_and_convention_identity(self):
        params = ModelParams(1.0, 3, 1e4, FieldKind.CHARGED_COMPLEX)
        charge = ChargeSpec(1.0, Regime.NON_RELATIVISTIC)
        result = discontinuity_estimate(params, Geometry(), charge)
        tc = result.critical_temperature
        analytic = 0.25 * math.pi * 1.0 / (1.0 * tc)
        print(f"\n  jump {result.jump!r} vs (pi/4)(V2/m) rho / T_C = "
              f"{analytic!r} (rel {rel(result.jump, analytic):.2e})")
        assert rel(result.jump, analytic) < 0.02

        # alternate normalization: the same jump re-expressed on a grid
        # where temperatures carry a 4 pi^2, giving
        # (pi^2/2) zeta(3/2)^(2/3) V2 rho^(1/3) -- an algebraic identity
        rescaled = result.stencil_orders["nr_rescaled_convention_jump"]
        closed = 0.5 * math.pi ** 2 * zeta(1.5) ** (2.0 / 3.0)
        print(f"  alternate-convention jump {rescaled!r} vs closed form "
              f"{closed!r} (rel {rel(rescaled, closed):.2e}); "
              f"4 pi^2 x series jump = {4.0 * math.pi ** 2 * analytic!r}")
        assert rel(rescaled, closed) < 1e-10
        assert rel(rescaled, 4.0 * math.pi ** 2 * analytic) < 1e-10


class TestCriterion09URDiscontinuity:
    def test_criterion_09_jump_sign_finding_continuity(self):
        params = ModelParams(1.0, 3, 1e4, FieldKind.CHARGED_COMPLEX)
        charge = ChargeSpec(1.0e4, Regime.RELATIVISTIC)
        geometry = Geometry()

        with pytest.warns(UserWarning, match="sign finding"):
            result = discontinuity_estimate(params, geometry, charge)
        tc = result.critical_temperature
        predicted = -(math.pi * math.sqrt(3.0) / 9.0) * math.sqrt(1.0e4)
        mag_dev = abs(abs(result.jump) - abs(predicted)) / abs(predicted)
        print(f"\n  measured jump {result.jump!r} "
              f"(left {result.left_derivative!r}, "
              f"right {result.right_derivative!r})")
        print(f"  closed-form prediction {predicted!r}; magnitude "
              f"agreement {mag_dev:.2e}")
        assert mag_dev <= 0.05
        finding = result.stencil_orders["sign_finding"]
        print(f"  finding: {finding}")
        assert finding is not None          # sign disagreement is reported
        assert "opposite signs" in finding

        # continuity of I_m itself at T_C, unconditional
        delta = 1e-4 * tc
        im = [mutual_info_at_fixed_charge(params, geometry, t, charge)
              .mutual_information for t in (tc - delta, tc, tc + delta)]
        gap = abs(im[2] - im[0])
        print(f"  I_m continuity: |I(T_C+d) - I(T_C-d)| = {gap:.3e} vs "
              f"1e-4 * I_m(T_C) = {1e-4 * im[1]:.3e}")
        assert gap < 1e-4 * im[1]


class TestCriterion10Determinism:
    def test_criterion_10_byte_identical_runs(self, tmp_path):
        from bosegas.cli import main
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model.mass = 1.0\n"
            "model.dimension = 3\n"
            "grid.tmin = 0.5\n"
            "grid.tmax = 2.0\n"
            "grid.points = 4\n"
            "output.format = csv\n")
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["mutual-info", "--config", str(cfg),
                     "--out", str(f1)]) == 0
        assert main(["mutual-info", "--config", str(cfg),
                     "--out", str(f2)]) == 0
        b1, b2 = f1.read_bytes(), f2.read_bytes()
        print(f"\n  two runs: {len(b1)} bytes each; identical: {b1 == b2}")
        assert b1 == b2
        assert len(b1) > 0


class TestPackageSurface:
    def test_version_exported(self):
        assert isinstance(bosegas.__version__, str)

    def test_discontinuity_payload_serializes(self):
        # the full diagnostics payload must stay JSON-serializable
        params = ModelParams(1.0, 3, 1e4, FieldKind.CHARGED_COMPLEX)
        charge = ChargeSpec(1.0, Regime.NON_RELATIVISTIC)
        result = discontinuity_estimate(params, Geometry(), charge)
        text = json.dumps(result.stencil_orders, sort_keys=True)
        assert "route" in text
