"""Fixed-charge condensation: solver, critical temperature, derivative jump.

Closed-form references (all evaluated in-test):

* non-relativistic condensation temperature (2 pi / m)(rho / zeta(3/2))^(2/3)
  and the excited-fraction power law (T / T_C)^(3/2);
* charge density at mu = m approaching m T^2/3 + m^3/(12 pi^2) at high T;
* one-sided slopes +/- pi T_C / 18 of the thermal boundary part at the
  relativistic transition, and the jump magnitude pi T_C / 9;
* the NR jump (pi/4) V_2 rho / (m T_C), exact on the closed-form route.

The closed-form jump is also checked against ``_chebyshev_slopes``, an
independent route that differentiates a Chebyshev interpolant of the
boundary part on each side of T_C.

One frozen anchor (the refined relativistic T_C at rho = 1e4, m = 1) guards
quadrature drift.  Work-count tests pin how many radial integrals the
relativistic root solves spend; the counts are deterministic.
"""

import math
import warnings

import numpy as np
import pytest

from bosegas import condensate, quadrature, thermo
from bosegas.condensate import (ChargeSpec, CondensateState, Phase, Regime,
                                _chebyshev_slopes, charge_density_rel,
                                critical_temperature, discontinuity_estimate,
                                excited_density_nr,
                                mutual_info_at_fixed_charge,
                                solve_chemical_potential, sweep)
from bosegas.specfun import AccuracyBudget, zeta
from bosegas.thermo import FieldKind, Geometry, ModelParams, ThermalPoint


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


ZETA32 = zeta(1.5)
GEO = Geometry()


def charged_params(mass=1.0, cutoff=1e4):
    return ModelParams(mass=mass, dimension=3, uv_cutoff=cutoff,
                       field_kind=FieldKind.CHARGED_COMPLEX)


def nr_charge(density=1.0):
    return ChargeSpec(density=density, regime=Regime.NON_RELATIVISTIC)


def rel_charge(density=1.0e4):
    return ChargeSpec(density=density, regime=Regime.RELATIVISTIC)


def tc_nr(density=1.0, mass=1.0):
    return 2.0 * math.pi / mass * (abs(density) / ZETA32) ** (2.0 / 3.0)


class TestChargeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChargeSpec(density=0.0)
        with pytest.raises(ValueError):
            ChargeSpec(density=math.nan)
        with pytest.raises(ValueError):
            ChargeSpec(density=1.0, regime="nr")


class TestExcitedDensityNR:
    def test_boltzmann_tail(self):
        # Li_{3/2}(z) = z + z^2/2^{3/2} + z^3/3^{3/2} + ... truncates fast
        t, m, mu = 2.0, 1.5, -20.0
        z = math.exp(mu / t)
        lam = (m * t / (2.0 * math.pi)) ** 1.5
        series = lam * (z + z ** 2 / 2.0 ** 1.5 + z ** 3 / 3.0 ** 1.5)
        assert rel(excited_density_nr(t, mu, m), series) < 1e-12

    def test_capacity_at_zero_gap(self):
        t, m = 3.0, 1.0
        lam = (m * t / (2.0 * math.pi)) ** 1.5
        assert rel(excited_density_nr(t, 0.0, m), lam * ZETA32) < 1e-13

    def test_domain(self):
        with pytest.raises(ValueError):
            excited_density_nr(1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            excited_density_nr(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            excited_density_nr(1.0, 0.0, 0.0)


class TestChargeDensityRel:
    def test_odd_in_mu(self):
        up = charge_density_rel(ThermalPoint(2.0, 0.4), 1.0)
        dn = charge_density_rel(ThermalPoint(2.0, -0.4), 1.0)
        assert up > 0.0
        assert rel(up, -dn) < 1e-12

    def test_zero_at_zero_mu(self):
        assert charge_density_rel(ThermalPoint(2.0, 0.0), 1.0) == 0.0

    def test_high_t_closed_form_at_critical_mu(self):
        # rho(T, mu = m) -> m T^2/3 + m^3/(12 pi^2), exponentially fast
        m = 1.0
        offset = m ** 3 / (12.0 * math.pi ** 2)
        got_hi = charge_density_rel(ThermalPoint(100.0, m), m)
        assert rel(got_hi, m * 100.0 ** 2 / 3.0 + offset) < 1e-9
        got_mid = charge_density_rel(ThermalPoint(5.0, m), m)
        assert rel(got_mid, m * 25.0 / 3.0 + offset) < 1e-5

    def test_domain(self):
        with pytest.raises(ValueError):
            charge_density_rel(ThermalPoint(1.0, 1.5), 1.0)
        with pytest.raises(ValueError):
            charge_density_rel(ThermalPoint(1.0, 0.5), -1.0)


class TestCriticalTemperature:
    def test_nr_closed_form(self):
        got = critical_temperature(nr_charge(1.0), 1.0)
        assert rel(got, tc_nr(1.0, 1.0)) < 1e-14
        # scaling in density and mass
        assert rel(critical_temperature(nr_charge(8.0), 1.0),
                   4.0 * got) < 1e-13
        assert rel(critical_temperature(nr_charge(1.0), 2.0),
                   0.5 * got) < 1e-13

    def test_rel_refined_anchor(self):
        # frozen from a verified build; leading order sqrt(3 rho / m)
        got = critical_temperature(rel_charge(1.0e4), 1.0)
        assert rel(got, 173.20500763523108) < 1e-9
        assert abs(got - math.sqrt(3.0e4)) < 0.01   # refinement is tiny

    def test_rel_capacity_consistency(self):
        # at T_C the zero-gap capacity equals the charge density
        tc = critical_temperature(rel_charge(1.0e4), 1.0)
        cap = charge_density_rel(ThermalPoint(tc, 1.0), 1.0)
        assert rel(cap, 1.0e4) < 1e-9

    def test_rel_low_density_is_bracketed(self):
        # T_C << m: the non-relativistic estimate, not sqrt(3 rho / m),
        # sets the bracket
        tc = critical_temperature(rel_charge(1.0e-12), 1.0)
        assert rel(tc, tc_nr(1.0e-12)) < 1e-6
        cap = charge_density_rel(ThermalPoint(tc, 1.0), 1.0)
        assert rel(cap, 1.0e-12) < 1e-9

    def test_rel_ultra_relativistic_density(self):
        # rho = 1e12, T_C ~ 1.7e6 m: n(omega - m) - n(omega + m) would be
        # a difference of two terms ~1e6 times larger; the charge moment
        # n_- (1 + n_+) (1 - e^(-2m/T)) keeps the capacity accurate.
        # Capacity m T^2/3 + m^3/(12 pi^2) at high T fixes T_C.
        rho, m = 1.0e12, 1.0
        tc = critical_temperature(rel_charge(rho), m)
        expected = math.sqrt(3.0 * (rho - m ** 3 / (12.0 * math.pi ** 2)) / m)
        assert rel(tc, expected) < 1e-11


class TestSolveChemicalPotential:
    def test_nr_condensed_fraction(self):
        tc = tc_nr()
        state = solve_chemical_potential(0.5 * tc, nr_charge(), 1.0)
        assert state.phase is Phase.CONDENSED
        assert state.mu == 1.0                       # pinned to the mass
        assert rel(state.condensate_density,
                   1.0 - 0.5 ** 1.5) < 1e-12
        assert rel(state.excited_density + state.condensate_density,
                   1.0) < 1e-12

    @pytest.mark.parametrize("frac", [0.3, 0.55, 0.8])
    def test_nr_power_law(self, frac):
        tc = tc_nr()
        state = solve_chemical_potential(frac * tc, nr_charge(), 1.0)
        assert rel(state.excited_density, frac ** 1.5) < 1e-10

    def test_nr_gas_round_trip(self):
        tc = tc_nr()
        state = solve_chemical_potential(1.7 * tc, nr_charge(), 1.0)
        assert state.phase is Phase.GAS
        assert state.condensate_density == 0.0
        assert 0.0 < state.z_nr < 1.0
        mu_nr = state.mu - 1.0                       # below threshold
        assert mu_nr < 0.0
        back = excited_density_nr(1.7 * tc, mu_nr, 1.0)
        assert rel(back, 1.0) < 1e-9

    def test_nr_boltzmann_regime(self):
        # far above T_C the fugacity approaches the classical value
        tc = tc_nr()
        t = 20.0 * tc
        state = solve_chemical_potential(t, nr_charge(), 1.0)
        mu_nr = t * math.log(state.z_nr)
        mu_classical = t * math.log(1.0 * (2.0 * math.pi / t) ** 1.5)
        assert rel(mu_nr, mu_classical) < 0.01

    def test_rel_condensed(self):
        tc = critical_temperature(rel_charge(), 1.0)
        state = solve_chemical_potential(0.9 * tc, rel_charge(), 1.0)
        assert state.phase is Phase.CONDENSED
        assert state.mu == 1.0
        assert state.condensate_density > 0.0
        assert rel(state.excited_density + state.condensate_density,
                   1.0e4) < 1e-10

    def test_rel_gas_residual(self):
        tc = critical_temperature(rel_charge(), 1.0)
        state = solve_chemical_potential(1.1 * tc, rel_charge(), 1.0)
        assert state.phase is Phase.GAS
        assert 0.0 < state.mu < 1.0
        back = charge_density_rel(ThermalPoint(1.1 * tc, state.mu), 1.0)
        assert rel(back, 1.0e4) < 1e-9

    def test_rel_gas_far_above_tc(self):
        # T = 1e4 m, rho = 1: |mu| ~ 3e-8 m, below what sqrt(m - |mu|)
        # resolves, and the charge moment is a 6e-12 fraction of each
        # occupation.  High-T expansion: rho = mu T^2/3 - mu m T/(2 pi)
        # + O(mu m^2).
        t, m, rho = 1.0e4, 1.0, 1.0
        state = solve_chemical_potential(t, rel_charge(rho), m)
        assert state.phase is Phase.GAS
        assert 0.0 < state.mu <= m
        back = charge_density_rel(ThermalPoint(t, state.mu), m)
        assert rel(back, rho) < 1e-9
        expected = 3.0 * rho / (t * t * (1.0 - 1.5 * m / (math.pi * t)))
        assert rel(state.mu, expected) < 1e-6

    def test_nr_gap_above_mass_warns(self):
        # T = 1e6 m: the NR gas solution has m - |mu| ~ 1.8e7 m
        with pytest.warns(UserWarning, match=r"\|mu\| > m"):
            state = solve_chemical_potential(1.0e6, nr_charge(), 1.0)
        assert state.mu < -1.0
        with pytest.warns(UserWarning, match=r"\|mu\| > m"):
            table = sweep(charged_params(), GEO, nr_charge(), [1.0e6])
        assert table.rows[0].mu == state.mu
        # a dilute NR gas just above T_C stays well inside |mu| <= m
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cool = solve_chemical_potential(1.45 * tc_nr(1.0e-4),
                                            nr_charge(1.0e-4), 1.0)
        assert 0.0 < cool.mu < 1.0

    def test_negative_charge_mirrors(self):
        tc = tc_nr()
        plus = solve_chemical_potential(1.5 * tc, nr_charge(1.0), 1.0)
        minus = solve_chemical_potential(
            1.5 * tc, ChargeSpec(-1.0, Regime.NON_RELATIVISTIC), 1.0)
        assert rel(plus.mu, -minus.mu) < 1e-14
        assert rel(plus.excited_density, minus.excited_density) < 1e-14

    def test_domain(self):
        with pytest.raises(ValueError):
            solve_chemical_potential(0.0, nr_charge(), 1.0)
        with pytest.raises(ValueError):
            solve_chemical_potential(1.0, nr_charge(), -1.0)


class TestAutoRegime:
    def test_refusal_band(self):
        # m = 1, rho = 1: estimated T_C / m ~ 3.3 sits in the refusal band
        with pytest.raises(ValueError, match="[Aa]uto regime"):
            solve_chemical_potential(1.0, ChargeSpec(1.0), 1.0)
        with pytest.raises(ValueError, match="[Aa]uto regime"):
            critical_temperature(ChargeSpec(1.0), 1.0)

    def test_auto_picks_nr(self):
        got = critical_temperature(ChargeSpec(1.0e-3), 1.0)
        assert rel(got, tc_nr(1.0e-3, 1.0)) < 1e-14

    def test_auto_picks_rel(self):
        auto = critical_temperature(ChargeSpec(1.0e4), 1.0)
        explicit = critical_temperature(rel_charge(1.0e4), 1.0)
        assert rel(auto, explicit) < 1e-12


class TestFixedChargeReport:
    def test_nr_condensed_boundary_closed_form(self):
        # at T = T_C/4: rho_e = rho / 8, boundary = (pi/6)(V2/m)(rho/8)
        tc = tc_nr()
        rep = mutual_info_at_fixed_charge(charged_params(), GEO, 0.25 * tc,
                                          nr_charge())
        assert rel(rep.boundary_thermal_part, math.pi / 48.0) < 1e-10

    def test_nr_gas_plateau(self):
        # in the gas phase the boundary part is pinned by the fixed charge
        tc = tc_nr()
        a = mutual_info_at_fixed_charge(charged_params(), GEO, 1.3 * tc,
                                        nr_charge())
        b = mutual_info_at_fixed_charge(charged_params(), GEO, 2.9 * tc,
                                        nr_charge())
        assert rel(a.mutual_information, b.mutual_information) < 1e-11
        assert rel(a.boundary_thermal_part, math.pi / 6.0) < 1e-10

    def test_rel_condensed_boundary_ur_form(self):
        # ultra-relativistic condensed phase: boundary ~ pi T^2 / 36,
        # giving pi rho / (48 m) at T = T_C / 2 with T_C^2 = 3 rho / m
        tc = critical_temperature(rel_charge(), 1.0)
        rep = mutual_info_at_fixed_charge(charged_params(), GEO, 0.5 * tc,
                                          rel_charge())
        assert rel(rep.boundary_thermal_part,
                   math.pi * 1.0e4 / 48.0) < 1e-3

    def test_report_identities(self):
        tc = tc_nr()
        rep = mutual_info_at_fixed_charge(charged_params(), GEO, 0.7 * tc,
                                          nr_charge())
        assert rep.mutual_information == (rep.zero_t_part
                                          + rep.boundary_thermal_part)
        assert rep.geometric_entropy == (rep.mutual_information
                                         + rep.extensive_thermal_part)

    def test_two_volume_scaling(self):
        tc = tc_nr()
        base = mutual_info_at_fixed_charge(charged_params(), GEO, 0.5 * tc,
                                           nr_charge())
        stretched = mutual_info_at_fixed_charge(
            charged_params(), Geometry(two_volume=4.0), 0.5 * tc, nr_charge())
        assert rel(stretched.boundary_thermal_part,
                   4.0 * base.boundary_thermal_part) < 1e-13

    def test_model_validation(self):
        neutral = ModelParams(1.0, 3, 1e4, FieldKind.NEUTRAL_REAL)
        with pytest.raises(ValueError):
            mutual_info_at_fixed_charge(neutral, GEO, 1.0, nr_charge())
        d1 = ModelParams(1.0, 1, 1e4, FieldKind.CHARGED_COMPLEX)
        with pytest.raises(ValueError):
            mutual_info_at_fixed_charge(d1, GEO, 1.0, nr_charge())


class TestSweep:
    def test_rows_match_single_point_calls(self):
        tc = tc_nr()
        temps = [0.5 * tc, 2.0 * tc]
        table = sweep(charged_params(), GEO, nr_charge(), temps)
        assert len(table.rows) == 2
        for t, row in zip(temps, table.rows):
            rep = mutual_info_at_fixed_charge(charged_params(), GEO, t,
                                              nr_charge())
            state = solve_chemical_potential(t, nr_charge(), 1.0)
            assert row.error is None
            assert rel(row.mutual_information, rep.mutual_information) < 1e-12
            assert rel(row.mu, state.mu) < 1e-12
        cold, hot = table.rows
        assert cold.condensate_density > 0.0
        assert hot.condensate_density == 0.0

    def test_metadata(self):
        table = sweep(charged_params(), GEO, nr_charge(), [1.0])
        for key in ("mass", "uv_cutoff", "charge_density", "regime",
                    "critical_temperature"):
            assert key in table.metadata
        assert table.metadata["regime"] == "nr"
        assert rel(float(table.metadata["critical_temperature"]),
                   tc_nr()) < 1e-13

    def test_bad_row_is_captured_not_raised(self):
        table = sweep(charged_params(), GEO, nr_charge(), [1.0, -2.0, 2.0])
        ok0, bad, ok2 = table.rows
        assert ok0.error is None and ok2.error is None
        assert bad.error is not None
        assert math.isnan(bad.mutual_information)
        assert math.isnan(bad.mu)


class TestDiscontinuity:
    def test_nr_jump_matches_closed_form(self):
        result = discontinuity_estimate(charged_params(), GEO, nr_charge())
        tc = result.critical_temperature
        assert rel(tc, tc_nr()) < 1e-13
        analytic = 0.25 * math.pi * 1.0 / (1.0 * tc)
        assert rel(result.analytic_jump, analytic) < 1e-14
        assert rel(result.jump, analytic) < 1e-12
        assert result.stencil_orders["sign_finding"] is None
        assert result.stencil_orders["route"] == "closed-form"
        left, right = _chebyshev_slopes(charged_params(), GEO, nr_charge(),
                                        tc)
        assert rel(left - right, analytic) < 1e-10
        assert abs(right) < 1e-10 * left
        # alternate-normalization jump: exactly 4 pi^2 times the series one
        rescaled = result.stencil_orders["nr_rescaled_convention_jump"]
        assert rel(rescaled, 4.0 * math.pi ** 2 * analytic) < 1e-12

    @pytest.mark.parametrize("rho,mass,v2", [(1e-3, 1.0, 1.0), (1.0, 2.0, 3.0),
                                             (5.0, 0.5, 0.25)])
    def test_nr_closed_form(self, rho, mass, v2):
        params = charged_params(mass=mass)
        result = discontinuity_estimate(params, Geometry(two_volume=v2),
                                        nr_charge(rho))
        tc = result.critical_temperature
        jump = 0.25 * math.pi * v2 * rho / (mass * tc)
        assert rel(result.jump, jump) < 1e-12
        assert rel(result.left_derivative, jump) < 1e-12
        assert result.right_derivative == 0.0
        assert result.stencil_orders["left"]["levels"] == 0
        assert result.stencil_orders["right"]["levels"] == 0
        assert result.stencil_orders["achieved"] == {}

    @pytest.mark.parametrize("rho,mass,v2", [(1e-3, 1.0, 1.0), (1.0, 2.0, 3.0),
                                             (5.0, 0.5, 0.25)])
    def test_nr_chebyshev_slopes_match_closed_form(self, rho, mass, v2):
        params, geometry = charged_params(mass=mass), Geometry(two_volume=v2)
        result = discontinuity_estimate(params, geometry, nr_charge(rho))
        left, right = _chebyshev_slopes(params, geometry, nr_charge(rho),
                                        result.critical_temperature)
        assert rel(left, result.left_derivative) < 1e-10
        # the one nonzero difference is T_C's condensed value vs rho
        assert abs(right) < 1e-10 * left

    def test_nr_right_slope_is_zero(self):
        result = discontinuity_estimate(charged_params(), GEO, nr_charge())
        assert abs(result.right_derivative) < 1e-10 * abs(
            result.left_derivative)

    def test_rel_jump_magnitude_and_sign_finding(self):
        params = charged_params(cutoff=1e6)
        with pytest.warns(UserWarning, match="sign finding"):
            result = discontinuity_estimate(params, GEO, rel_charge(1.0e4))
        tc = result.critical_temperature
        # slopes approach +/- pi T_C / 18; the closed-form prediction has
        # magnitude pi T_C / 9 but the opposite (right - left) sign
        assert rel(result.left_derivative, math.pi * tc / 18.0) < 1e-3
        assert rel(result.right_derivative, -math.pi * tc / 18.0) < 5e-3
        assert abs(abs(result.jump / result.analytic_jump) - 1.0) < 0.01
        assert result.jump > 0.0
        assert result.analytic_jump < 0.0
        finding = result.stencil_orders["sign_finding"]
        assert finding is not None and "opposite signs" in finding
        assert "closed-form" in finding
        left, right = _chebyshev_slopes(params, GEO, rel_charge(1.0e4), tc)
        assert rel(left - right, result.jump) < 1e-5

    @pytest.mark.filterwarnings("ignore:sign finding")
    @pytest.mark.parametrize("rho", [1.0e5, 1.0e6])
    def test_rel_jump_magnitude_at_high_density(self, rho):
        acc = AccuracyBudget(relative_tolerance=1e-8)
        result = discontinuity_estimate(charged_params(), GEO,
                                        rel_charge(rho), acc)
        closed_form = math.pi * math.sqrt(3.0) / 9.0 * math.sqrt(rho)
        assert rel(abs(result.jump), closed_form) < 1e-3
        assert rel(abs(result.analytic_jump), closed_form) < 1e-12

    @pytest.mark.filterwarnings("ignore:sign finding")
    @pytest.mark.parametrize("rho", [1.0e4, 1.0e8, 1.0e10, 1.0e11])
    def test_rel_jump_is_ultra_relativistic_limit(self, rho):
        # m / T_C -> 0: the jump tends to pi T_C / 9, which the stencil
        # route missed at 1e10 and 1e11
        result = discontinuity_estimate(
            charged_params(), GEO, rel_charge(rho),
            AccuracyBudget(relative_tolerance=1e-8))
        tc = result.critical_temperature
        assert abs(result.jump / (math.pi * tc / 9.0) - 1.0) <= 1e-11
        orders = result.stencil_orders
        assert orders["route"] == "closed-form"
        assert orders["left"]["levels"] == 0
        assert orders["right"]["levels"] == 0
        assert set(orders["achieved"]) == {"left_derivative", "jump"}
        assert all(0.0 <= e <= 1e-13 for e in orders["achieved"].values())

    @pytest.mark.filterwarnings("ignore:sign finding")
    @pytest.mark.parametrize("rho", [1e-5, 1.0, 1.0e2, 1.0e4])
    def test_rel_closed_form_matches_stencils(self, rho):
        # rho = 1e-5 puts 2m / T_C near 2e3, where e^(2m/T) overflows
        acc = AccuracyBudget(relative_tolerance=1e-8)
        closed = discontinuity_estimate(charged_params(), GEO,
                                        rel_charge(rho), acc)
        left, right = _chebyshev_slopes(charged_params(), GEO,
                                        rel_charge(rho),
                                        closed.critical_temperature, acc)
        # plain floats, so a report holding them serializes as JSON
        assert type(left) is float and type(right) is float
        assert rel(closed.jump, left - right) <= 1e-5
        assert rel(closed.left_derivative, left) <= 1e-10


class TestStateShape:
    def test_state_fields(self):
        state = solve_chemical_potential(1.0, nr_charge(), 1.0)
        assert isinstance(state, CondensateState)
        assert state.temperature == 1.0
        assert 0.0 < state.z_nr <= 1.0


class TestRootSolveWork:
    """Work spent by the relativistic fixed-charge solves.

    Radial integrals count the root solves' work, GK15 panels the work of
    the quadrature grid inside each integral; both are deterministic.
    """

    CLI_ACC = AccuracyBudget(relative_tolerance=1e-8)   # CLI default --rtol

    @pytest.fixture
    def integrals(self, monkeypatch):
        # Every radial integral, whether through integrate_radial or, for
        # the closed-form jump, straight through the report; a batch of n
        # rows (the batched route behind sweeps) counts as n integrals.
        calls = [0]
        inner = quadrature._integrate_radial_report
        rows = thermo._integrate_radial_rows

        def counted(spec):
            calls[0] += 1
            return inner(spec)

        def counted_rows(dimension, integrand, grids, acc):
            calls[0] += len(grids)
            return rows(dimension, integrand, grids, acc)

        for module in (quadrature, condensate):
            monkeypatch.setattr(module, "_integrate_radial_report", counted)
        monkeypatch.setattr(thermo, "_integrate_radial_rows", counted_rows)
        return calls

    def test_rel_tc(self, integrals):
        critical_temperature(rel_charge(1.0e4), 1.0)
        assert integrals[0] <= 10

    def test_rel_sweep(self, integrals, gk15_panels):
        # mutual-info --charge-density 1e4 --regime rel --tmin 100
        # --tmax 300 --points 40
        temps = [100.0 + 200.0 * i / 39 for i in range(40)]
        table = sweep(charged_params(), GEO, rel_charge(1.0e4), temps,
                      self.CLI_ACC)
        assert all(row.error is None for row in table.rows)
        assert integrals[0] < 450
        assert gk15_panels[0] <= 12_000

    @pytest.mark.filterwarnings("ignore:sign finding")
    def test_rel_discontinuity(self, integrals, gk15_panels):
        discontinuity_estimate(charged_params(), GEO, rel_charge(1.0e4),
                               self.CLI_ACC)
        assert integrals[0] <= 8
        assert gk15_panels[0] <= 600

    @pytest.mark.parametrize("temp,gap", [(170.0, 1e-4), (300.0, 0.0),
                                          (1000.0, 0.1), (20.0, 1e-8)])
    def test_rel_density_panels(self, gk15_panels, temp, gap):
        # one charge-density integral at the root solves' budget (rtol
        # 1e-12, 4000 subdivisions), near and far from the knee
        charge_density_rel(ThermalPoint(temp, 1.0 - gap), 1.0,
                           AccuracyBudget(relative_tolerance=1e-12))
        assert gk15_panels[0] <= 70


class TestLockstepSweep:
    """Sweep rows solve and report together, in batched rounds.

    Each batched integral refines every row on its own, and every gas row
    starts from its own chord start, so a row's bytes are those of its
    one-point sweep whatever rows share its batches.
    """

    ACC = AccuracyBudget(relative_tolerance=1e-8)   # CLI default --rtol
    # mutual-info --charge-density 1e4 --regime rel --tmin 100 --tmax 300
    # --points 40
    MI_REL40 = [100.0 + 200.0 * i / 39 for i in range(40)]

    def one_row(self, t, charge, tc):
        (row,) = sweep(charged_params(), GEO, charge, [t], self.ACC,
                       tc=tc).rows
        return row

    def test_rows_equal_their_one_point_sweeps(self):
        charge = rel_charge(1.0e4)
        tc = critical_temperature(charge, 1.0, self.ACC)
        table = sweep(charged_params(), GEO, charge, self.MI_REL40,
                      self.ACC, tc=tc)
        phases = set()
        for t, row in zip(self.MI_REL40, table.rows):
            assert row.error is None
            assert repr(row) == repr(self.one_row(t, charge, tc))
            state = solve_chemical_potential(t, charge, 1.0, self.ACC)
            assert repr((row.mu, row.excited_density,
                         row.condensate_density)) == repr((
                             state.mu, state.excited_density,
                             state.condensate_density))
            phases.add(state.phase)
        assert phases == {Phase.CONDENSED, Phase.GAS}
        rep = mutual_info_at_fixed_charge(charged_params(), GEO,
                                          self.MI_REL40[-1], charge, self.ACC)
        assert rep.mutual_information == table.rows[-1].mutual_information
        assert rep.boundary_thermal_part == \
            table.rows[-1].boundary_thermal_part

    def test_property_states_and_rows(self):
        # over drawn densities of either sign and temperatures about T_C:
        # every gas or condensed state keeps |mu| <= m, and every row,
        # failed or not, is its one-point sweep bit for bit
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=15, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(st.floats(-2.0, 8.0), st.booleans(),
                          st.lists(st.floats(-1.0, 1.0), min_size=1,
                                   max_size=5))
        def check(log_density, negative, log_ratios):
            density = (-1.0 if negative else 1.0) * 10.0 ** log_density
            charge = rel_charge(density)
            tc = critical_temperature(charge, 1.0, self.ACC)
            temps = [tc * 10.0 ** u for u in log_ratios]
            rows = sweep(charged_params(), GEO, charge, temps, self.ACC,
                         tc=tc).rows
            for t, row in zip(temps, rows):
                assert repr(row) == repr(self.one_row(t, charge, tc))
                if row.error is None:
                    assert abs(row.mu) <= 1.0
                    state = solve_chemical_potential(t, charge, 1.0,
                                                     self.ACC)
                    assert abs(state.mu) <= 1.0

        check()

    def test_bad_temperature_fails_only_its_row(self):
        charge = rel_charge(1.0e4)
        tc = critical_temperature(charge, 1.0, self.ACC)
        first, bad, last = sweep(charged_params(), GEO, charge,
                                 [150.0, -2.0, 250.0], self.ACC, tc=tc).rows
        assert bad.error == "temperature must be positive, got -2.0"
        assert math.isnan(bad.mu) and math.isnan(bad.mutual_information)
        assert repr(first) == repr(self.one_row(150.0, charge, tc))
        assert repr(last) == repr(self.one_row(250.0, charge, tc))

    @pytest.mark.parametrize("stage_rtol", [1e-12, 1e-8])
    @pytest.mark.parametrize("poison,message", [
        ("nan", "integrand returned a non-finite value at p = "),
        ("noise", "quadrature "),
    ])
    def test_failed_row_inside_a_batch(self, monkeypatch, stage_rtol,
                                       poison, message):
        # The kernel of the T = 200 row (tail scale 2 T = 400) turns bad in
        # every batch at one budget: the root solve's (rtol 1e-12, from the
        # capacity pass on) or the report's (the sweep's rtol 1e-8).
        charge = rel_charge(1.0e4)
        tc = critical_temperature(charge, 1.0, self.ACC)
        temps = [150.0, 200.0, 250.0]
        alone = [self.one_row(t, charge, tc) for t in temps]
        batch = thermo._integrate_radial_rows

        def poisoned(dimension, integrand, grids, acc):
            marked = np.array([acc.relative_tolerance == stage_rtol
                               and scale == 400.0 for _, scale in grids])

            def kernel(ps, rows):
                values = integrand(ps, rows)
                bad = (np.full_like(values, np.nan) if poison == "nan"
                       else values * (1.0 + 0.1 * np.sign(np.sin(1e3 * ps))))
                return np.where(marked[rows], bad, values)

            return batch(dimension, kernel, grids, acc)

        monkeypatch.setattr(thermo, "_integrate_radial_rows", poisoned)
        first, failed, last = sweep(charged_params(), GEO, charge, temps,
                                    self.ACC, tc=tc).rows
        assert failed.error.startswith(message)
        assert math.isnan(failed.mu) and math.isnan(failed.mutual_information)
        assert repr(first) == repr(alone[0])
        assert repr(last) == repr(alone[2])

    @pytest.mark.parametrize("rho", [1.0e-2, 1.0, 1.0e4, 1.0e8])
    def test_critical_temperature_roots_unchanged(self, rho):
        # bits of the roots before the solver became a coroutine
        pinned = {1.0e-2: "0x1.202dda238c1b0p-3", 1.0: "0x1.b98eae48aa082p+0",
                  1.0e4: "0x1.5a68f6c2bd0e9p+7",
                  1.0e8: "0x1.0ea20844cd3a5p+14"}
        got = critical_temperature(rel_charge(rho), 1.0)
        assert got.hex() == pinned[rho]

    @pytest.mark.filterwarnings("ignore:non-relativistic gas")
    @pytest.mark.parametrize("rho,t,mu,z_nr", [
        (1.0, 2.0, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        (1.0, 5.0, "0x1.5fcfb7da93458p-3", "0x1.b1d7a3e68cecdp-1"),
        (1.0e-3, 0.3, "0x1.25329a474bd22p-2", "0x1.7b7fc7660b47cp-4"),
        (-1.0, 4.0, "-0x1.b00465dff7c16p-1", "0x1.ec63c4956482dp-1"),
        (1.0, 1.0e6, "-0x1.1225713e2ebddp+24", "0x1.0e9384459eee1p-26"),
    ])
    def test_nr_roots_unchanged(self, rho, t, mu, z_nr):
        state = solve_chemical_potential(t, nr_charge(rho), 1.0)
        assert (state.mu.hex(), state.z_nr.hex()) == (mu, z_nr)


class TestRefinedSweepRows:
    # rho = 10 lands the T = T_C row in the gas phase at a gap of ~1e-30,
    # rho = 30 in the condensed phase; every row must be finite and valid
    @pytest.mark.parametrize("rho", [10.0, 30.0])
    def test_rows_reproduce_density_including_tc(self, rho):
        charge = rel_charge(rho)
        tc = critical_temperature(charge, 1.0)
        temps = sorted([0.9 * tc, 1.2 * tc, 1.5 * tc]
                       + [tc * (1.0 + s) for s in
                          (-1e-2, -1e-3, -1e-4, 0.0, 1e-4, 1e-3, 1e-2)])
        table = sweep(charged_params(), GEO, charge, temps, tc=tc)
        gas = 0
        for row in table.rows:
            assert row.error is None
            assert all(math.isfinite(v) for v in (
                row.mu, row.mutual_information, row.geometric_entropy,
                row.thermal_entropy))
            if row.condensate_density > 0.0:
                assert row.mu == 1.0
                assert rel(row.excited_density + row.condensate_density,
                           rho) < 1e-12
            else:
                gas += 1
                back = charge_density_rel(
                    ThermalPoint(row.temperature, row.mu), 1.0)
                assert rel(back, rho) < 1e-9
        assert gas >= 5

