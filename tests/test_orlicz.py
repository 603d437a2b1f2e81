"""Tests for Young functions, Luxemburg norms, and endpoint constants."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq

from besselweights import orlicz
from besselweights.errors import UnboundedComplementaryError
from besselweights.measure import BesselMeasure, FuncExpr, Interval
from besselweights.orlicz import (
    c_phi,
    complementary,
    exp_m1,
    identity_young,
    llogl,
    luxemburg_norm,
    orlicz_maximal_profile,
    power_young,
)

M0 = BesselMeasure(1.0)
LEB = BesselMeasure(1e-9)  # effectively Lebesgue for averages on (0,1)


class TestYoungBasics:
    def test_inverse_roundtrip(self):
        for phi in (llogl(), power_young(2.0), exp_m1(), llogl(0.5)):
            for y in (1e-250, 1e-100, 1e-20, 0.3, 1.0, 7.0, 1e4, 1e11):
                t = phi.inverse(y)
                assert phi(t) == pytest.approx(y, rel=1e-10, abs=0.0)
        # full precision at the ends of the range, where |log t| is large
        assert power_young(2.0).inverse(1e-250) == pytest.approx(
            math.sqrt(2e-250), rel=2e-15, abs=0.0
        )
        assert identity_young().inverse(1e300) == pytest.approx(1e300, rel=2e-15, abs=0.0)

    def test_doubling_validates(self):
        with pytest.raises(ValueError):
            # exp is not 4-doubling with gamma=2
            from besselweights.orlicz import YoungFunction

            YoungFunction(lambda t: math.exp(t) - 1, "bad", gamma_doubling=2.0)

    def test_llogl_sixteen_doubling(self):
        psi = llogl(1.0)
        assert psi.gamma_doubling == 16.0
        for t in np.logspace(-4, 6, 40):
            assert psi(4 * t) <= 16.0 * psi(t) * (1 + 1e-12)


class TestComplementary:
    def test_power_pair(self):
        # phi = t^p/p has conjugate s^{p'}/p'
        for p in (2.0, 3.0, 1.5):
            pp = p / (p - 1.0)
            bar = complementary(power_young(p))
            for s in (0.5, 1.0, 2.0, 10.0):
                assert bar(s) == pytest.approx(s**pp / pp, rel=1e-8)
        # tiny arguments: the maximiser t = s lies far below 1
        bar = complementary(power_young(2.0))
        assert bar(1e-20) == pytest.approx(5e-41, rel=1e-12, abs=0.0)
        assert bar.inverse(1e-30) == pytest.approx(math.sqrt(2e-30), rel=1e-12, abs=0.0)

    def test_exponential_superlinear_despite_overflow(self):
        # phi(1e12) and phi(1e250) both overflow; e^t - 1 is still superlinear,
        # with phibar(s) = s log s - s + 1
        phi = exp_m1()
        assert phi.is_superlinear()
        bar = complementary(phi)
        for s in (2.0, 10.0, 1e3):
            assert bar(s) == pytest.approx(s * math.log(s) - s + 1.0, rel=1e-12, abs=0.0)

    def test_inverse_at_doubled_powers_pinned(self):
        # k / phibar^{-1}(32^{2^k}) for LlogL: the inverse reads phibar = +inf past
        # t = exp(690) on its walk out and must still land on these (rel 1e-15
        # leaves a few ulp for libm across hosts)
        bar = complementary(llogl())
        terms = [k / bar.inverse(math.exp(2.0**k * math.log(32.0))) for k in range(1, 8)]
        pinned = [
            0.12603793242586042, 0.13456282305069533, 0.10443541662520407,
            0.07085694009338206, 0.04468133539654949, 0.026929124160786036,
            0.01574398674160439,
        ]
        assert terms == pytest.approx(pinned, rel=1e-15, abs=0.0)

    def test_identity_degenerate(self):
        with pytest.raises(UnboundedComplementaryError):
            complementary(identity_young())

    def test_maximiser_beyond_search_range_is_inf(self):
        # s*t - phi(t) still rises at t = exp(690): phibar(100) ~ exp(100^2) overflows
        assert complementary(llogl(0.5))(100.0) == math.inf

    def test_maximiser_just_inside_search_range_is_finite(self):
        # for LlogL the maximiser is t* ~ e^(s-1), so phibar(690.5) ~ e^689.5 is finite
        val = complementary(llogl())(690.5)
        assert math.isfinite(val)
        assert math.log(val) == pytest.approx(689.5, rel=1e-12)

    def test_inverse_product_sandwich(self):
        # classical: t <= phibar^{-1}(t) phi^{-1}(t) <= 2t
        for phi in (llogl(), power_young(2.0), llogl(0.5)):
            bar = complementary(phi)
            for t in np.logspace(0, 6, 25):
                prod = bar.inverse(float(t)) * phi.inverse(float(t))
                assert t * (1 - 1e-7) <= prod <= 2 * t * (1 + 1e-7)

    def test_young_inequality(self):
        phi = llogl()
        bar = complementary(phi)
        for s in np.logspace(-2, 2, 10):
            for t in np.logspace(-2, 2, 10):
                assert s * t <= phi(float(t)) + bar(float(s)) + 1e-12


class TestLuxemburg:
    def test_constant_function(self):
        for phi in (llogl(), power_young(2.0)):
            for c in (0.37, 1e-200, 1e-295):
                val = luxemburg_norm(FuncExpr.constant(c), phi, Interval(1, 5), M0)
                assert val == pytest.approx(c / phi.inverse(1.0), rel=1e-12, abs=0.0)

    def test_identity_reduces_to_average(self):
        f = FuncExpr.piecewise_constant([1.0, 2.0, 3.0], [1.0, 4.0])
        B = Interval(1, 3)
        val = luxemburg_norm(f, identity_young(), B, M0)
        assert val == pytest.approx(M0.average(f, B), rel=1e-8)

    def test_indicator_llogl_against_root_oracle(self):
        # ||chi_[0,1/2)||_{psi,[0,1)} with psi = t log(e+t):
        # s solves q * (1/s) log(e + 1/s) = 1, q = mu([0,1/2)) / mu([0,1))
        f = FuncExpr.indicator(Interval(0.0, 0.5))
        val = luxemburg_norm(f, llogl(), Interval(0, 1), LEB)
        q = LEB.mu(Interval(0, 0.5)) / LEB.mu(Interval(0, 1))
        root = brentq(
            lambda s: q * (1 / s) * math.log(math.e + 1 / s) - 1.0, 1e-6, 10.0, rtol=1e-14
        )
        assert val == pytest.approx(root, rel=1e-12)
        assert q == pytest.approx(0.5, rel=1e-8)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(11)
        phi = llogl(0.5)
        for _ in range(20):
            vals = rng.uniform(0.1, 3.0, size=3)
            f = FuncExpr.piecewise_constant([0.5, 1.0, 2.0, 4.0], list(vals))
            c = float(rng.uniform(0.2, 5.0))
            B = Interval(0.5, 4.0)
            n0 = luxemburg_norm(f, phi, B, M0)
            for scaled in (f * c, f * FuncExpr.indicator(Interval(0.25, 5.0), c)):
                assert luxemburg_norm(scaled, phi, B, M0) == pytest.approx(c * n0, rel=1e-8)

    def test_characterization_mean_le_one(self):
        rng = np.random.default_rng(5)
        phi = llogl()
        for _ in range(200):
            vals = list(rng.uniform(0.0, 2.5, size=4))
            pts = np.sort(rng.uniform(0.2, 6.0, size=5))
            if np.min(np.diff(pts)) < 1e-3:
                continue
            f = FuncExpr.piecewise_constant(list(pts), vals)
            B = Interval(float(pts[0]), float(pts[-1]))
            norm = luxemburg_norm(f, phi, B, M0)
            if norm == 0.0:
                continue
            mean = sum(
                phi(abs(v)) * M0.mu(Interval(float(lo), float(hi)))
                for lo, hi, v in zip(pts, pts[1:], vals)
            ) / M0.mu(B)
            if norm <= 1.0 - 1e-8:
                assert mean <= 1.0 + 1e-6
            elif norm >= 1.0 + 1e-8:
                assert mean >= 1.0 - 1e-6


class TestLuxemburgCells:
    """`luxemburg_norm` walks the cells of |f| once; on an all-constant |f|
    and on a single curved cell it does the float operations the two-route
    mean did, so the gauges agree bit for bit."""

    PHIS = (llogl(), power_young(2.0), exp_m1())

    def test_all_constant_matches_the_two_route_mean(self, reference_luxemburg_norm):
        rng = np.random.default_rng(17)
        for _ in range(30):
            pts = np.sort(rng.uniform(0.05, 4.0, size=5))
            vals = list(rng.uniform(-3.0, 3.0, size=4) * 10.0 ** rng.integers(-3, 3, size=4))
            f = FuncExpr.piecewise_constant(list(pts), vals)
            B = Interval(float(rng.uniform(0.0, pts[1])), float(rng.uniform(pts[3], 5.0)))
            for m in (M0, LEB):
                for phi in self.PHIS:
                    assert luxemburg_norm(f, phi, B, m) == reference_luxemburg_norm(f, phi, B, m)

    @pytest.mark.parametrize("f, B, phis", [
        # phi(x^-k / s) x^2 must stay integrable at 0.  llogl(1) on C9's
        # densities x^-2 and x^-1 takes its declared tails (TestDeclaredTails);
        # the Young functions here declare none
        (FuncExpr.power(1.0, -2.0), Interval(0.0, 0.5), (llogl(0.5),)),
        (FuncExpr.power(1.0, -1.0), Interval(0.0, 0.125), (llogl(0.5), power_young(2.0))),
        (FuncExpr.log_power(1.0, -0.5, 1), Interval(0.0, 0.5), PHIS[:2]),
        (FuncExpr.power(-2.5, 0.7), Interval(0.3, 4.0), PHIS),
        (FuncExpr.log_power(0.5, 0.3, 2), Interval(1.5, 6.0), PHIS),
        (FuncExpr.log_power(-1.0, 0.0, 1), Interval(0.01, 0.9), PHIS),
    ])
    def test_one_curved_cell_matches_the_two_route_mean(self, f, B, phis, reference_luxemburg_norm):
        for phi in phis:
            assert luxemburg_norm(f, phi, B, M0) == reference_luxemburg_norm(f, phi, B, M0)

    def test_cells_split_at_a_root_match_quadrature_across_it(self, reference_luxemburg_norm):
        for c in (-0.7, 0.2, 0.9):
            f = FuncExpr.log_power(1.0, 0.0, 1) - c  # |log x - c| cut at e^c
            B = Interval(0.25, 4.0)
            assert len(f.restrict(B).abs().pieces) == 2
            for phi in self.PHIS:
                assert luxemburg_norm(f, phi, B, M0) == pytest.approx(
                    reference_luxemburg_norm(f, phi, B, M0), rel=1e-9, abs=0.0
                )

    def test_gauge_search_never_looks_cells_up(self, monkeypatch):
        calls = []
        call = FuncExpr.__call__
        monkeypatch.setattr(FuncExpr, "__call__", lambda f, x: calls.append(x) or call(f, x))
        val = luxemburg_norm(FuncExpr.power(1.0, -2.0), llogl(), Interval(0.0, 0.5), M0)
        assert val > 0.0 and calls == []


def _mp_tail(gamma: float, t: float) -> mp.mpf:
    """R(t) = t^{-gamma-1} int_t^inf u^gamma log(e+u) du = int_1^inf v^gamma
    log(e + t v) dv, by 30-digit quadrature in w = log v, split where t v = e."""
    with mp.workdps(30):
        t, g = mp.mpf(t), mp.mpf(gamma)
        knee = mp.log(mp.e / t)
        pts = [0, knee, mp.inf] if knee > 0 else [0, mp.inf]
        return mp.quad(lambda w: mp.exp((g + 1) * w) * mp.log(mp.e + t * mp.exp(w)), pts)


def _mp_gauge(beta: float, b: float) -> mp.mpf:
    """||x^beta||_{LlogL, (0, b)} under dmu = x^2 dx, to 30 digits: the s where
    3/b^3 int_0^b phi(x^beta / s) x^2 dx = 1, phi(t) = t log(e + t)."""
    with mp.workdps(30):
        b, beta = mp.mpf(b), mp.mpf(beta)

        def mean(s):
            phi = lambda t: t * mp.log(mp.e + t)
            return 3 / b**3 * mp.quad(lambda x: phi(x**beta / s) * x**2, [0, b / 64, b / 8, b])

        s0 = luxemburg_norm(FuncExpr.power(1.0, float(beta)), llogl(), Interval(0.0, float(b)), M0)
        return mp.findroot(lambda s: mean(s) - 1, (mp.mpf(s0) * (1 - 1e-6), mp.mpf(s0) * (1 + 1e-6)),
                           solver="secant")


class TestDeclaredTails:
    """llogl(1) declares the scaled tails R of gamma = -3/2 and -3, and
    `luxemburg_norm` answers the C9 densities x^-2 and x^-1 from them."""

    TAILS = dict(llogl()._tails)

    @pytest.mark.parametrize("gamma", [-1.5, -3.0])
    def test_tail_matches_mpmath(self, gamma):
        R = self.TAILS[gamma]
        # t >> e is where the gamma = -3 form cancels if written naively
        ts = list(10.0 ** np.arange(-300.0, 301.0, 25.0)) + [0.1, 1.0, math.e, 10.0, 10.873, 11.0, 1e4, 1e8]
        ts += [1e-310, 2.0**-1074]  # e/t overflows: R(0) there
        for t in ts:
            assert R(t) == pytest.approx(float(_mp_tail(gamma, t)), rel=1e-14, abs=0.0), t

    def test_other_young_functions_declare_no_tails(self):
        for phi in (llogl(0.5), power_young(2.0), exp_m1(), identity_young()):
            assert phi._tails == ()

    @pytest.mark.parametrize("beta, b", [(-2.0, 0.5), (-1.0, 0.125)])
    def test_c9_density_gauge_matches_mpmath_and_quadrature(self, beta, b, reference_luxemburg_norm):
        f, B = FuncExpr.power(1.0, beta), Interval(0.0, b)
        val = luxemburg_norm(f, llogl(), B, M0)
        assert val == pytest.approx(float(_mp_gauge(beta, b)), rel=1e-13, abs=0.0)
        # reference_luxemburg_norm's own quadrature asks for 1e-11
        assert val == pytest.approx(reference_luxemburg_norm(f, llogl(), B, M0), rel=1e-11, abs=0.0)

    def test_gauge_beside_a_tail_cell_at_subnormal_t(self):
        # at the gauge ~1e200, t = 1e-110 x^-1 / s is subnormal on the x^-1 cell
        B = Interval(0.0, 2.0)
        big = FuncExpr.indicator(Interval(1.0, 2.0), 1e200)
        f = FuncExpr.power(1e-110, -1.0) * FuncExpr.indicator(Interval(0.0, 1.0)) + big
        assert [p.atoms[0][1] for p in f.restrict(B).pieces] == [-1.0, 0.0]
        assert luxemburg_norm(f, llogl(), B, M0) == luxemburg_norm(big, llogl(), B, M0)

    def test_c9_density_gauges_make_no_quadrature_call(self, monkeypatch):
        calls = []
        quad = orlicz.integrate_callable
        monkeypatch.setattr(orlicz, "integrate_callable", lambda *a, **k: calls.append(a) or quad(*a, **k))
        for beta in (0.0, -1.0, -2.0):
            for B in (Interval(0.0, 2.0**-5), Interval(0.25, 0.5), Interval(0.75, 1.0)):
                assert luxemburg_norm(FuncExpr.power(1.0, beta), llogl(), B, M0) > 0.0
        assert calls == []
        luxemburg_norm(FuncExpr.power(1.0, -1.0), llogl(0.5), Interval(0.25, 0.5), M0)
        assert len(calls) > 0  # the counter sees the quadrature route


class TestEndpointConstants:
    def test_c_phi_llogl_half_finite(self):
        res = c_phi(llogl(0.5))
        assert res.finite

    def test_c_phi_identity_diverges(self):
        res = c_phi(identity_young())
        assert not res.finite
        assert math.isinf(res.value)

    def test_c_phi_power_value_against_oracle(self):
        res = c_phi(power_young(2.0))
        assert res.finite
        # oracle: phi^{-1}(t) = sqrt(2t); refined quadrature in log space to 1e30,
        # with the remaining tail below sqrt(2)*2*1e-15/log(1e30)
        from scipy.integrate import quad

        val, _ = quad(
            lambda u: math.sqrt(2 * math.exp(u)) / (math.exp(u) * math.log(math.e + math.exp(u))),
            0.0,
            math.log(1e30),
            limit=800,
        )
        assert res.value == pytest.approx(val, rel=1e-6)


class TestMaximal:
    def test_identity_is_hardy_littlewood(self):
        f = FuncExpr.piecewise_constant([0.0, 0.5, 1.0], [1.0, 0.0])
        fam = [Interval(0, 1), Interval(0, 0.5), Interval(0.5, 1.0)]
        lam_small = BesselMeasure(1e-9)
        prof = orlicz_maximal_profile(f, identity_young(), fam, lam_small)
        assert prof(0.75) == pytest.approx(0.5, rel=1e-6)

    def test_constant_profile(self):
        phi = llogl()
        h = FuncExpr.constant(2.0)
        fam = [Interval(0.5, 1.0), Interval(1.0, 2.0), Interval(0.5, 2.0)]
        prof = orlicz_maximal_profile(h, phi, fam, M0)
        expected = 2.0 / phi.inverse(1.0)
        for x in (0.6, 0.9, 1.5, 1.9):
            assert prof(x) == pytest.approx(expected, rel=1e-7)

    def test_profile_matches_pointwise(self):
        h = FuncExpr.piecewise_constant([0.25, 1.0, 4.0], [3.0, 0.5])
        fam = [Interval(0.25, 1.0), Interval(0.25, 4.0), Interval(1.0, 4.0)]
        prof = orlicz_maximal_profile(h, llogl(), fam, M0)
        for x in (0.3, 0.8, 1.5, 3.0):
            covering = [B for B in fam if B.a < x < B.b]
            assert prof(x) == pytest.approx(
                max(luxemburg_norm(h, llogl(), B, M0) for B in covering), rel=1e-7
            )

    def test_a1_control_of_maximal(self):
        # h = w/mu density for w = t^alpha with alpha in the limiting class:
        # family maximal of h at x is controlled by a constant times h(x)
        lam = 1.0
        m = BesselMeasure(lam)
        alpha = 1.0  # in (-1, 2*lam]
        h = FuncExpr.power(1.0, alpha - 2 * lam)
        fam = [Interval(0.0, 2.0**-j) for j in range(0, 12)] + [
            Interval(2.0**-j, 2.0) for j in range(1, 12)
        ]
        prof = orlicz_maximal_profile(h, identity_young(), fam, m)
        for x in (0.01, 0.1, 0.3, 0.9):
            assert prof(x) <= 10.0 * h(x)
