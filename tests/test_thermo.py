"""Entropy decomposition of the free Bose field across a flat boundary.

Closed-form checks use the massless Stefan-Boltzmann entropies, exact
doubling between the charged and neutral field, and the small-mass
asymptotics of the regulated vacuum piece.  Two frozen full-precision
anchors guard against silent numerical drift.
"""

import math

import numpy as np
import pytest

from bosegas.specfun import AccuracyBudget, EULER_GAMMA, gamma_upper
from bosegas.thermo import (EntropyReport, FieldKind, Geometry, ModelParams,
                            ThermalPoint, _entropy_weight,
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


def _mpmath_boundary(mpmath, dim, kind, mass, temp, mu):
    """(pi/3) int d^Dp/(2pi)^D occupation/omega in mpmath, over ln p.

    In s = ln p every decade of momentum has the same width, so one
    tanh-sinh piece spans the decades from below the knee to the decay
    length L; nothing here shares code with the library's grid.
    """
    mp = mpmath.mp
    knee = math.sqrt((mass - abs(mu)) * (mass + abs(mu))) or mass
    decay = max(temp, math.sqrt(mass * temp))
    with mpmath.workdps(20):
        m, t, a = mp.mpf(mass), mp.mpf(temp), mp.mpf(abs(mu))
        gap2 = (m - a) * (m + a)

        def f(s):
            p = mp.exp(s)
            omega = mp.sqrt(p * p + m * m)
            occ = 1 / mp.expm1((p * p + gap2) / (omega + a) / t)
            if kind == "charged":
                occ += 1 / mp.expm1((omega + a) / t)
            return occ / omega * p ** dim

        # Beyond p = e^5 L the occupation is below e^-140.
        value = mp.quad(f, [-mp.inf, mp.log(knee) - 3, mp.log(decay),
                            mp.log(decay) + 5])
        solid = {1: 2, 2: 2 * mp.pi, 3: 4 * mp.pi}[dim] / (2 * mp.pi) ** dim
        return float(mp.pi / 3 * solid * value)


class TestMpmathReference:
    """The boundary part against an independent mpmath quadrature.

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

    @pytest.mark.parametrize("dim,kind,mass,temp,mu,rtol", LATTICE)
    def test_boundary_part(self, dim, kind, mass, temp, mu, rtol):
        mpmath = pytest.importorskip("mpmath")
        got = _report(dim, kind, mass, temp, mu, rtol).boundary_thermal_part
        ref = _mpmath_boundary(mpmath, dim, kind, mass, temp, mu)
        assert rel(got, ref) <= rtol


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
