"""Entropy decomposition of the free Bose field across a flat boundary.

Closed-form checks use the massless Stefan-Boltzmann entropies, exact
doubling between the charged and neutral field, and the small-mass
asymptotics of the regulated vacuum piece.  Two frozen full-precision
anchors guard against silent numerical drift.
"""

import math

import numpy as np
import pytest

from bosegas.condensate import (ChargeSpec, Regime, charge_density_rel,
                                critical_temperature, sweep)
from bosegas.errors import QuadratureError
from bosegas.specfun import AccuracyBudget, EULER_GAMMA, gamma_upper
from bosegas.thermo import (EntropyReport, FieldKind, Geometry, ModelParams,
                            ThermalPoint, _bose, _entropy_weight,
                            boundary_thermal_matsubara,
                            dispersion, high_t_expansion, mutual_info_charged,
                            mutual_info_neutral, thermal_entropy,
                            zero_t_entanglement)


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def neutral(mass=1.0, dim=3, cutoff=100.0):
    return ModelParams(mass=mass, dimension=dim, uv_cutoff=cutoff,
                       field_kind=FieldKind.NEUTRAL_REAL)


def charged(mass=1.0, dim=3, cutoff=100.0):
    return ModelParams(mass=mass, dimension=dim, uv_cutoff=cutoff,
                       field_kind=FieldKind.CHARGED_COMPLEX)


GEO = Geometry()


class TestValidation:
    def test_model_params(self):
        with pytest.raises(ValueError):
            ModelParams(mass=0.0, dimension=3, uv_cutoff=10.0)
        with pytest.raises(ValueError):
            ModelParams(mass=1.0, dimension=4, uv_cutoff=10.0)
        with pytest.raises(ValueError):
            ModelParams(mass=1.0, dimension=3, uv_cutoff=1.0)
        with pytest.raises(ValueError):
            ModelParams(mass=1.0, dimension=3, uv_cutoff=10.0,
                        field_kind="neutral")

    def test_geometry(self):
        with pytest.raises(ValueError):
            Geometry(boundary_area=0.0)
        with pytest.raises(ValueError):
            Geometry(subsystem_volume=-1.0)
        with pytest.raises(ValueError):
            Geometry(two_volume=math.inf)

    def test_thermal_point(self):
        with pytest.raises(ValueError):
            ThermalPoint(temperature=0.0)
        with pytest.raises(ValueError):
            ThermalPoint(temperature=1.0, chemical_potential=math.nan)

    def test_field_kind_dispatch(self):
        pt = ThermalPoint(temperature=1.0)
        with pytest.raises(ValueError):
            mutual_info_neutral(charged(), GEO, pt)
        with pytest.raises(ValueError):
            mutual_info_charged(neutral(), GEO, pt)

    def test_neutral_rejects_chemical_potential(self):
        pt = ThermalPoint(temperature=1.0, chemical_potential=0.1)
        with pytest.raises(ValueError):
            mutual_info_neutral(neutral(), GEO, pt)
        with pytest.raises(ValueError):
            thermal_entropy(neutral(), GEO, pt)

    def test_mu_domain(self):
        with pytest.raises(ValueError):
            mutual_info_charged(charged(), GEO,
                                ThermalPoint(1.0, chemical_potential=1.001))
        # the critical point |mu| = m is integrable only in D = 3
        with pytest.raises(ValueError):
            mutual_info_charged(charged(dim=1), GEO,
                                ThermalPoint(1.0, chemical_potential=1.0))
        with pytest.raises(ValueError):
            mutual_info_charged(charged(dim=2), GEO,
                                ThermalPoint(1.0, chemical_potential=-1.0))


class TestDispersion:
    def test_scalar_and_array(self):
        params = neutral(mass=2.0)
        assert rel(float(dispersion(params, 1.5)), math.sqrt(6.25)) < 1e-15
        ps = np.array([0.0, 1.0, 3.0])
        expected = np.sqrt(ps ** 2 + 4.0)
        assert np.allclose(dispersion(params, ps), expected, rtol=1e-15)


class TestDecomposition:
    @pytest.mark.parametrize("maker,mu", [(neutral, 0.0), (charged, 0.7)])
    def test_parts_sum_exactly(self, maker, mu):
        params = maker()
        pt = ThermalPoint(temperature=1.3, chemical_potential=mu)
        fn = mutual_info_charged if mu else mutual_info_neutral
        rep = fn(params, GEO, pt)
        assert isinstance(rep, EntropyReport)
        assert rep.geometric_entropy == (rep.zero_t_part
                                         + rep.boundary_thermal_part
                                         + rep.extensive_thermal_part)
        assert rep.mutual_information == (rep.zero_t_part
                                          + rep.boundary_thermal_part)
        assert rep.boundary_thermal_part > 0.0

    def test_extensive_part_is_minus_half_thermal(self):
        params = neutral()
        pt = ThermalPoint(temperature=2.0)
        rep = mutual_info_neutral(params, GEO, pt)
        s_th = thermal_entropy(params, GEO, pt)
        assert rel(rep.extensive_thermal_part, -0.5 * s_th) < 1e-11

    def test_volume_and_area_scaling(self):
        params = neutral()
        pt = ThermalPoint(temperature=1.0)
        base = mutual_info_neutral(params, GEO, pt)
        scaled = mutual_info_neutral(
            params, Geometry(boundary_area=3.0, subsystem_volume=5.0), pt)
        assert rel(scaled.zero_t_part, 3.0 * base.zero_t_part) < 1e-13
        assert rel(scaled.boundary_thermal_part,
                   3.0 * base.boundary_thermal_part) < 1e-13
        assert rel(scaled.extensive_thermal_part,
                   5.0 * base.extensive_thermal_part) < 1e-13


class TestThermalEntropy:
    def test_massless_blackbody_d3(self):
        # one real scalar: s = (2 pi^2 / 45) T^3
        params = neutral(mass=1e-8, cutoff=1.0)
        for t in (1.0, 2.5):
            s = thermal_entropy(params, GEO, ThermalPoint(t))
            assert rel(s, 2.0 * math.pi ** 2 / 45.0 * t ** 3) < 1e-10

    def test_massless_line_d1(self):
        # one real scalar on a line: s = (pi / 3) T
        params = neutral(mass=1e-8, dim=1, cutoff=1.0)
        s = thermal_entropy(params, GEO, ThermalPoint(1.0))
        assert rel(s, math.pi / 3.0) < 1e-7

    def test_charged_doubles(self):
        pt = ThermalPoint(temperature=0.8)
        s_n = thermal_entropy(neutral(), GEO, pt)
        s_c = thermal_entropy(charged(), GEO, pt)
        assert rel(s_c, 2.0 * s_n) < 1e-12


class TestZeroTemperature:
    def test_d1_log_asymptotics(self):
        # Gamma(0, x) -> -gamma - ln x gives (1/6) ln(Lambda/m) - gamma/12
        params = neutral(mass=1.0, dim=1, cutoff=1e4)
        value = zero_t_entanglement(params, GEO)
        expected = math.log(1e4) / 6.0 - EULER_GAMMA / 12.0
        assert rel(value, expected) < 1e-9

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_regulated_formula(self, dim):
        params = neutral(mass=0.7, dim=dim, cutoff=53.0)
        x = (0.7 / 53.0) ** 2
        expected = (1.0 / 12.0) / (4.0 * math.pi) ** (0.5 * (dim - 1)) \
            * 0.7 ** (dim - 1) * gamma_upper(-0.5 * (dim - 1), x)
        assert rel(zero_t_entanglement(params, GEO), expected) < 1e-13

    def test_charged_doubles_and_area_scales(self):
        params_n = neutral()
        params_c = charged()
        v_n = zero_t_entanglement(params_n, GEO)
        v_c = zero_t_entanglement(params_c, GEO)
        assert rel(v_c, 2.0 * v_n) < 1e-15
        v_area = zero_t_entanglement(params_n, Geometry(boundary_area=7.0))
        assert rel(v_area, 7.0 * v_n) < 1e-15


class TestChargedNeutralRelation:
    @pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("temp", [0.3, 1.0, 4.0])
    def test_mu_zero_doubling(self, mass, temp):
        pt = ThermalPoint(temperature=temp)
        rep_n = mutual_info_neutral(neutral(mass=mass), GEO, pt)
        rep_c = mutual_info_charged(charged(mass=mass), GEO, pt)
        # one occupation kernel: at mu = 0 the charged integrand is
        # bitwise twice the neutral one, and so is every assembled part
        for field in ("zero_t_part", "boundary_thermal_part",
                      "extensive_thermal_part", "geometric_entropy",
                      "mutual_information"):
            assert getattr(rep_c, field) == 2.0 * getattr(rep_n, field)

    def test_mu_sign_symmetry(self):
        params = charged()
        up = mutual_info_charged(params, GEO, ThermalPoint(0.9, 0.6))
        dn = mutual_info_charged(params, GEO, ThermalPoint(0.9, -0.6))
        assert rel(up.mutual_information, dn.mutual_information) < 1e-12


class TestFrozenAnchors:
    """Full-precision regression anchors (frozen from a verified build)."""

    def test_charged_near_critical(self):
        rep = mutual_info_charged(
            charged(), GEO, ThermalPoint(0.5, chemical_potential=0.99))
        assert rel(rep.boundary_thermal_part, 0.055975704137266498) < 1e-9
        assert rel(rep.mutual_information, 132.5573309997028) < 1e-10

    def test_charged_at_critical_mu(self):
        rep = mutual_info_charged(
            charged(), GEO, ThermalPoint(0.5, chemical_potential=1.0))
        assert rel(rep.boundary_thermal_part, 0.06725317406764553) < 1e-9


class TestEntropyWeight:
    # x/(e^x - 1) - ln(1 - e^-x), arbitrary-precision reference (mpmath,
    # 50 digits), rounded to double
    REFERENCE = {
        1e-30: 70.07755278982137,
        1e-16: 37.841361487904734,
        1e-12: 28.631021115928547,
        1.0: 1.0406518522564083,
        20.0: 4.328422615830098e-08,
        50.0: 9.83662422461598e-21,
    }

    def test_matches_reference_down_to_tiny_argument(self):
        xs = np.array(sorted(self.REFERENCE))
        got = _entropy_weight(xs)
        for x, w in zip(xs, got):
            assert math.isfinite(w)
            assert rel(w, self.REFERENCE[x]) < 1e-15


class TestOccupationHelperEdges:
    """Both helpers against the masked formulas: zero-filled output, the
    formula applied only where x < 690, so exactly 0 from 690 up."""

    XS = np.array([1e-300, 1e-8, 689.999, 690.0, 709.8, 1e308, math.inf])

    @staticmethod
    def masked(x, weight):
        out = np.zeros_like(x)
        ok = x < 690.0
        n = 1.0 / np.expm1(x[ok])
        out[ok] = x[ok] * n + np.log1p(n) if weight else n
        return out

    @pytest.mark.parametrize("helper, weight",
                             [(_bose, False), (_entropy_weight, True)])
    def test_bitwise_masked_values_without_fp_warnings(self, helper, weight):
        with np.errstate(all="raise"):
            got = helper(self.XS)
            one_by_one = [helper(x) for x in self.XS]
        want = self.masked(self.XS, weight)
        assert got.tobytes() == want.tobytes()
        assert np.array(one_by_one).tobytes() == want.tobytes()
        assert (got[self.XS >= 690.0] == 0.0).all()
        assert np.isfinite(got).all() and (got[:3] > 0.0).all()


class TestMatsubaraRoute:
    def test_charged_agrees(self):
        params = charged()
        pt = ThermalPoint(0.8, chemical_potential=0.6)
        direct = mutual_info_charged(params, GEO, pt).boundary_thermal_part
        alt = boundary_thermal_matsubara(params, GEO, pt)
        assert rel(alt, direct) < 1e-7

    def test_neutral_agrees(self):
        params = neutral()
        pt = ThermalPoint(1.1)
        direct = mutual_info_neutral(params, GEO, pt).boundary_thermal_part
        alt = boundary_thermal_matsubara(params, GEO, pt)
        assert rel(alt, direct) < 1e-7

    @pytest.mark.parametrize("kind", ["neutral", "charged"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_agrees_in_every_dimension(self, dim, kind):
        if kind == "neutral":
            params, pt = neutral(dim=dim), ThermalPoint(1.1)
            direct = mutual_info_neutral(params, GEO, pt)
        else:
            params = charged(dim=dim)
            pt = ThermalPoint(0.8, chemical_potential=0.6)
            direct = mutual_info_charged(params, GEO, pt)
        alt = boundary_thermal_matsubara(params, GEO, pt)
        assert rel(alt, direct.boundary_thermal_part) < 1e-7


class TestHighTExpansion:
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    def test_matches_quadrature_at_high_t(self, mu):
        params = charged(cutoff=10.0)
        pt = ThermalPoint(50.0, chemical_potential=mu)
        boundary = mutual_info_charged(params, GEO, pt).boundary_thermal_part
        j_quad = boundary * 3.0 / math.pi
        assert rel(high_t_expansion(pt, 1.0), j_quad) < 2e-3

    def test_warns_at_low_t(self):
        with pytest.warns(UserWarning):
            high_t_expansion(ThermalPoint(4.9), 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            high_t_expansion(ThermalPoint(50.0, chemical_potential=1.5), 1.0)
        with pytest.raises(ValueError):
            high_t_expansion(ThermalPoint(50.0), 0.0)


class TestAccuracyPlumbing:
    def test_loose_budget_still_close(self):
        params = neutral()
        pt = ThermalPoint(1.0)
        tight = mutual_info_neutral(params, GEO, pt)
        loose = mutual_info_neutral(
            params, GEO, pt, acc=AccuracyBudget(relative_tolerance=1e-6))
        assert rel(loose.boundary_thermal_part,
                   tight.boundary_thermal_part) < 1e-5


def _report(dim, kind, mass, temp, mu, rtol):
    """Entropy report of the CLI's fixed-mu row at the given rtol."""
    if kind == "neutral":
        return mutual_info_neutral(neutral(mass, dim, 1e4 * mass), GEO,
                                   ThermalPoint(temp), AccuracyBudget(rtol))
    return mutual_info_charged(charged(mass, dim, 1e4 * mass), GEO,
                               ThermalPoint(temp, mu), AccuracyBudget(rtol))


def _mpmath_moment(mpmath, dim, kind, mass, temp, mu, moment="boundary",
                   dps=20, second_cuts=False):
    """int d^Dp/(2pi)^D of one occupation moment in mpmath, over ln p.

    ``moment`` is "boundary" (pi/3 times occupation/omega), "entropy"
    (the weight x n(x) - ln(1 - e^-x) per mode) or "charge" (particle
    minus antiparticle occupation).  In s = ln p every decade of momentum
    has the same width, so one tanh-sinh piece spans the decades from
    below the knee to the decay length L; nothing here shares code with
    the library's grid.  ``second_cuts`` splits the domain elsewhere, so
    that two references can vouch for each other.
    """
    mp = mpmath.mp
    knee = math.sqrt((mass - abs(mu)) * (mass + abs(mu))) or mass
    decay = max(temp, math.sqrt(mass * temp))
    with mpmath.workdps(dps):
        m, t, a = mp.mpf(mass), mp.mpf(temp), mp.mpf(abs(mu))
        gap2 = (m - a) * (m + a)

        def weight(x):
            if moment == "entropy":
                n = 1 / mp.expm1(x)
                return x * n + mp.log1p(n)
            return 1 / mp.expm1(x)

        def f(s):
            p = mp.exp(s)
            omega = mp.sqrt(p * p + m * m)
            value = weight((p * p + gap2) / (omega + a) / t)
            if moment == "charge":
                value -= weight((omega + a) / t)
            elif kind == "charged":
                value += weight((omega + a) / t)
            if moment == "boundary":
                value /= omega
            return value * p ** dim

        # Beyond p = e^5 L the occupation is below e^-140.
        knee_s, decay_s = mp.log(knee), mp.log(decay)
        cuts = ([knee_s - 5, (knee_s + decay_s) / 2, decay_s, decay_s + 2]
                if second_cuts else [knee_s - 3, decay_s])
        value = mp.quad(f, [-mp.inf, *cuts, decay_s + 5])
        solid = {1: 2, 2: 2 * mp.pi, 3: 4 * mp.pi}[dim] / (2 * mp.pi) ** dim
        if moment == "boundary":
            solid *= mp.pi / 3
        return float(solid * value)


def _mpmath_reference(mpmath, rtol, *args):
    """A 30-digit reference, checked against a second breakpoint set.

    At 25 digits the entropy reference is 4e-11 off the 30-digit value on
    D = 2, neutral, m = 1e-10, T = 1e-9, and its two breakpoint sets
    disagree by 3e-11 there, so the check would catch it.
    """
    ref = _mpmath_moment(mpmath, *args, dps=30)
    other = _mpmath_moment(mpmath, *args, dps=30, second_cuts=True)
    assert rel(ref, other) <= 0.1 * rtol
    return ref


class TestMpmathReference:
    """The boundary part, entropy and charge density against independent
    mpmath quadratures.

    The lattice spans D in {1, 2, 3}, both field kinds, m from 1e-10 to 1,
    T/m from 0.05 to 1e10 and |mu| -> m.  It holds the fixed-mu inputs
    that used to exhaust the subdivision budget (a knee many decades below
    the decay length), and two that a single breakpoint at m gets wrong:
    D = 1, neutral, m = 1e-10, T = 100 (half the true value) and D = 1,
    charged, T = 1e10, mu = 1 - 1e-6 (9e-4 off).
    """

    LATTICE = [
        # (D, kind, m, T, mu, rtol)
        (1, "charged", 1.0, 1e8, 1 - 1e-9, 1e-10),
        (1, "charged", 1.0, 1e10, 1 - 1e-6, 1e-10),
        (2, "charged", 1.0, 1e8, 1 - 1e-12, 1e-8),
        (2, "charged", 1.0, 1e10, 1 - 1e-9, 1e-6),
        (2, "charged", 1.0, 1e8, 1 - 1e-9, 1e-12),
        (1, "neutral", 1e-10, 100.0, 0.0, 1e-8),
        (1, "neutral", 1e-10, 1.0, 0.0, 1e-12),
        (2, "neutral", 1e-10, 1e-9, 0.0, 1e-12),
        (3, "charged", 1.0, 0.05, 0.999, 1e-12),
        (2, "neutral", 1.0, 0.05, 0.0, 1e-12),
        (3, "neutral", 1e-4, 1e3, 0.0, 1e-12),
        (1, "charged", 1e-4, 10.0, 1e-4 * (1 - 1e-8), 1e-10),
        (2, "charged", 1e-4, 1.0, -1e-4 * (1 - 1e-6), 1e-10),
        (3, "charged", 1.0, 1e10, 1.0, 1e-12),
        (3, "charged", 1.0, 2.0, -(1 - 1e-10), 1e-12),
        (1, "neutral", 1.0, 30.0, 0.0, 1e-12),
    ]
    # the D = 3 charged rows at mu != 0, where the charge density is not 0
    CHARGE_ROWS = [row for row in LATTICE
                   if row[:2] == (3, "charged") and row[4] != 0.0]

    @pytest.mark.parametrize("dim,kind,mass,temp,mu,rtol", LATTICE)
    def test_boundary_part(self, dim, kind, mass, temp, mu, rtol):
        mpmath = pytest.importorskip("mpmath")
        got = _report(dim, kind, mass, temp, mu, rtol).boundary_thermal_part
        ref = _mpmath_moment(mpmath, dim, kind, mass, temp, mu)
        assert rel(got, ref) <= rtol

    @pytest.mark.parametrize("dim,kind,mass,temp,mu,rtol", LATTICE)
    def test_entropy_part(self, dim, kind, mass, temp, mu, rtol):
        mpmath = pytest.importorskip("mpmath")
        got = _report(dim, kind, mass, temp, mu, rtol).extensive_thermal_part
        ref = _mpmath_reference(mpmath, rtol, dim, kind, mass, temp, mu,
                                "entropy")
        assert rel(got, -0.5 * ref) <= rtol

    @pytest.mark.parametrize("dim,kind,mass,temp,mu,rtol", CHARGE_ROWS)
    def test_charge_density(self, dim, kind, mass, temp, mu, rtol):
        mpmath = pytest.importorskip("mpmath")
        got = charge_density_rel(ThermalPoint(temp, mu), mass,
                                 AccuracyBudget(rtol))
        ref = _mpmath_reference(mpmath, rtol, dim, kind, mass, temp, mu,
                                "charge")
        assert rel(got, math.copysign(ref, mu)) <= rtol

    @pytest.mark.parametrize("rho", [1e-3, 1.0, 1e4, 1e8])
    @pytest.mark.parametrize("t_ratio", [1.001, 2.0])
    def test_fixed_charge_row(self, rho, t_ratio):
        # A solved relativistic gas row (m = 1, T in units of T_C): at the
        # row's mu the 30-digit charge density is rho to 2e-10 (the solve
        # asks 1e-10 of its own quadrature), and the boundary part, (pi/6)
        # V_2 times the occupation integral, half the fixed-mu (pi/3)
        # moment, matches to the default rtol of 1e-12.
        mpmath = pytest.importorskip("mpmath")
        charge = ChargeSpec(rho, Regime.RELATIVISTIC)
        temp = t_ratio * critical_temperature(charge, 1.0)
        (row,) = sweep(charged(1.0, 3, 1e4), GEO, charge, [temp]).rows
        ref = _mpmath_moment(mpmath, 3, "charged", 1.0, temp, row.mu,
                             "charge", dps=30)
        assert abs(math.copysign(ref, row.mu) - rho) <= 2e-10 * rho
        ref = 0.5 * _mpmath_moment(mpmath, 3, "charged", 1.0, temp, row.mu)
        assert rel(row.boundary_thermal_part, ref) <= 1e-12


class TestRequestedAccuracy:
    """Both thermal parts meet the requested rtol on fixed-mu rows.

    Every row of three fixed-mu CLI jobs (``--spacing log``) is compared
    with a 1e-14 evaluation.  A grid with two breakpoints and a tail scale
    equal to the decay length missed the rtol by 12x (D = 3 boundary,
    T = 102.68), 7x (D = 2 boundary, T = 0.2034) and 2x (D = 2 entropy,
    T = 0.7666).
    """

    JOBS = [
        # (D, kind, mu, tmin, tmax, points, rtol)
        (3, "charged", -0.9999999462425773, 86.39834901525202,
         204.82826545345486, 6, 1.3118708933315865e-08),
        (2, "charged", -0.9998755517036252, 0.1465684253894712,
         1.451039639369183, 8, 5.322295314308725e-08),
        (2, "neutral", 0.0, 0.406312085437596, 1.446401057873009, 3,
         5.6845747582028724e-08),
    ]

    @pytest.mark.parametrize("dim,kind,mu,tmin,tmax,points,rtol", JOBS)
    def test_both_parts_meet_rtol(self, dim, kind, mu, tmin, tmax, points,
                                  rtol):
        for i in range(points):
            temp = tmin * (tmax / tmin) ** (i / (points - 1))
            got = _report(dim, kind, 1.0, temp, mu, rtol)
            ref = _report(dim, kind, 1.0, temp, mu, 1e-14)
            assert rel(got.boundary_thermal_part,
                       ref.boundary_thermal_part) <= rtol, temp
            assert rel(got.extensive_thermal_part,
                       ref.extensive_thermal_part) <= rtol, temp


class TestGridWork:
    def test_fixed_mu_scan_panels(self, gk15_panels):
        # entropy --field-kind charged --mu 0.9 --tmin 0.1 --tmax 10
        # --points 100: 200 integrals
        params = charged(cutoff=1e4)
        for i in range(100):
            point = ThermalPoint(0.1 + 9.9 * i / 99, 0.9)
            mutual_info_charged(params, GEO, point,
                                AccuracyBudget(relative_tolerance=1e-8))
        assert gk15_panels[0] <= 6_000


class TestReportProperties:
    """Properties of every fixed-mu report, over drawn inputs."""

    def test_charge_density_increases_with_mu(self):
        # strictly increasing in |mu| on (0, m), odd in mu
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=20, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(st.floats(-2.0, 2.0), st.floats(-1.5, 3.0),
                          st.booleans(),
                          st.lists(st.floats(1e-3, 0.999), min_size=2,
                                   max_size=4, unique=True))
        def check(log_mass, log_temp, negative, fractions):
            fractions = sorted(fractions)
            hypothesis.assume(all(b - a >= 1e-3 for a, b in
                                  zip(fractions, fractions[1:])))
            mass = 10.0 ** log_mass
            sign = -1.0 if negative else 1.0
            densities = [charge_density_rel(
                ThermalPoint(mass * 10.0 ** log_temp, sign * f * mass), mass)
                for f in fractions]
            sizes = [sign * d for d in densities]
            assert 0.0 < sizes[0]
            assert all(a < b for a, b in zip(sizes, sizes[1:]))

        check()

    def test_boundary_part_increases_with_temperature(self):
        # at fixed mu every occupation grows with T, and so does the
        # boundary thermal part
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=20, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(st.sampled_from([1, 2, 3]), st.floats(-2.0, 2.0),
                          st.floats(0.0, 0.99),
                          st.lists(st.floats(-1.5, 3.0), min_size=2,
                                   max_size=4, unique=True))
        def check(dim, log_mass, fraction, log_temps):
            log_temps = sorted(log_temps)
            hypothesis.assume(all(b - a >= 1e-3 for a, b in
                                  zip(log_temps, log_temps[1:])))
            mass = 10.0 ** log_mass
            params = charged(mass, dim, 1e4 * mass)
            parts = [mutual_info_charged(params, GEO, ThermalPoint(
                mass * 10.0 ** u, fraction * mass)).boundary_thermal_part
                for u in log_temps]
            assert 0.0 < parts[0]
            assert all(a < b for a, b in zip(parts, parts[1:]))

        check()

    def test_fixed_mu_reports(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(st.sampled_from([1, 2, 3]), st.floats(-4.0, 2.0),
                          st.floats(-2.0, 4.0), st.floats(0.0, 1.0),
                          st.floats(-14.0, -3.0))
        def check(dim, log_mass, log_temp, fraction, log_rtol):
            mass = 10.0 ** log_mass
            if fraction == 1.0 and dim != 3:
                fraction = 0.5     # |mu| = m is in the domain in D = 3 only
            point = ThermalPoint(mass * 10.0 ** log_temp, fraction * mass)
            flipped = ThermalPoint(point.temperature, -fraction * mass)
            acc = AccuracyBudget(10.0 ** log_rtol)
            try:
                rep = mutual_info_charged(charged(mass, dim, 1e4 * mass),
                                          GEO, point, acc)
            except (ValueError, QuadratureError):
                return          # a documented error instead of a value
            values = [rep.zero_t_part, rep.boundary_thermal_part,
                      rep.extensive_thermal_part, rep.geometric_entropy,
                      rep.mutual_information]
            assert all(math.isfinite(v) for v in values)
            assert rep.boundary_thermal_part >= 0.0
            assert rep.extensive_thermal_part <= 0.0
            assert rep.geometric_entropy == (rep.zero_t_part
                                             + rep.boundary_thermal_part
                                             + rep.extensive_thermal_part)
            assert rep.mutual_information == (rep.zero_t_part
                                              + rep.boundary_thermal_part)
            assert mutual_info_charged(charged(mass, dim, 1e4 * mass), GEO,
                                       flipped, acc) == rep
            if fraction == 0.0:
                one = mutual_info_neutral(neutral(mass, dim, 1e4 * mass),
                                          GEO, ThermalPoint(
                                              point.temperature), acc)
                assert [2.0 * v for v in (
                    one.zero_t_part, one.boundary_thermal_part,
                    one.extensive_thermal_part, one.geometric_entropy,
                    one.mutual_information)] == values

        check()
