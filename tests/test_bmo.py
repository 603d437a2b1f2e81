"""Tests for BMO flavors, medians, rearrangements, and oscillation machinery."""

import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import besselweights
from besselweights import bmo
from besselweights.bmo import (
    bmo_median_norm,
    bmo_triangle_norm,
    local_mean_oscillation,
    log_mu_oscillation_endpoint_form,
    mass_of,
    median,
    median_oscillation,
    median_stability_check,
    p_oscillation,
    quantile_threshold,
    rearrangement,
    superlevel_measure,
    superlevel_set,
    triangle_oscillation,
    weighted_bmo_norm,
)
from besselweights.errors import ConstructionError, PostconditionError
from besselweights.measure import BesselMeasure, FuncExpr, Interval, dmu, monotone_inverse
from besselweights.weights import IntervalFamily, TildeAp, Weight, weight_constant

M1 = BesselMeasure(1.0)
M0 = BesselMeasure(1e-9)
LOGB = FuncExpr.log_of_mu_density(1.0)  # 2 log x


def small_family(seed=0):
    return IntervalFamily.standard(5, seed=seed, n_random=20)


class TestSuperlevel:
    def test_indicator_sets(self):
        f = FuncExpr.indicator(Interval(0.25, 0.5), 2.0)
        s = superlevel_set(f, 1.0, Interval(0, 1))
        assert len(s) == 1
        assert (s[0].a, s[0].b) == (0.25, 0.5)

    def test_log_threshold(self):
        B = Interval(0.5, 4.0)
        s = superlevel_set(LOGB, 0.0, B)  # {2 log x > 0} = (1, 4)
        assert len(s) == 1
        assert s[0].a == pytest.approx(1.0, rel=1e-9)
        assert s[0].b == pytest.approx(4.0)

    def test_close_turning_points(self):
        # b = u^3 - 1e-3 u, u = log x, turns at |u| = sqrt(1e-3/3), so it is
        # not monotone on (1/e, e); {b > 0} is {-sqrt(1e-3) < u < 0} + {u > sqrt(1e-3)}
        b = FuncExpr.log_power(1.0, 0.0, 3) + FuncExpr.log_power(-1e-3, 0.0, 1)
        B = Interval(math.exp(-1.0), math.exp(1.0))
        r = math.sqrt(1e-3)
        s = superlevel_set(b, 0.0, B)
        assert len(s) == 2
        for iv, (lo, hi) in zip(s, ((math.exp(-r), 1.0), (math.exp(r), B.b))):
            assert iv.a == pytest.approx(lo, rel=1e-12)
            assert iv.b == pytest.approx(hi, rel=1e-12)

    def test_crossing_far_below_one(self):
        # b = (u - 100)(u + 60), u = log x, falls on (1e-40, e^20) and rises on
        # (e^20, e^30) without reaching 0 again, so {b > 0} = (1e-40, e^-60)
        b = FuncExpr.log_power(1.0, 0.0, 2) - FuncExpr.log_power(40.0, 0.0, 1) - 6000.0
        (iv,) = superlevel_set(b, 0.0, Interval(1e-40, math.exp(30.0)))
        assert iv.a == pytest.approx(1e-40, rel=1e-12, abs=0.0)
        assert iv.b == pytest.approx(math.exp(-60.0), rel=1e-12, abs=0.0)

    def test_flat_point_keeps_one_monotone_piece(self):
        # (log x)^3 is flat at x = 1 and increasing on B; on (1/39, 39) its
        # derivative also reads 0 at the geometric midpoint 1
        b = FuncExpr.log_power(1.0, 0.0, 3)
        for B in (Interval(0.1, 10.0), Interval(1.0 / 39.0, 39.0)):
            assert bmo._classify(b, B, Weight.one()).mono is not None
            (iv,) = superlevel_set(b, 0.0, B)
            assert iv.a == pytest.approx(1.0, rel=1e-12) and iv.b == B.b

    def test_measure_exact(self):
        B = Interval(0.5, 4.0)
        val = superlevel_measure(LOGB, 0.0, B, M1)
        assert val == pytest.approx(M1.mu(Interval(1.0, 4.0)), rel=1e-9)


class TestMedian:
    def test_constant_symbol(self):
        assert median(FuncExpr.constant(3.3), Interval(1, 2), M1) == pytest.approx(3.3)

    def test_monotone_measure_bisection(self):
        # b strictly increasing, ref = dmu, lam=1, B=(1,3): b at m = 14^{1/3}
        val = median(LOGB, Interval(1, 3), M1)
        expected = 2.0 * math.log(14.0 ** (1.0 / 3.0))
        assert val == pytest.approx(expected, rel=1e-9)

    def test_indicator_infimum_convention(self):
        b = FuncExpr.indicator(Interval(0.0, 0.5))
        assert median(b, Interval(0, 1), M0) == pytest.approx(0.0, abs=1e-12)

    def test_postconditions_random(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            vals = list(rng.uniform(-2, 2, size=4))
            b = FuncExpr.piecewise_constant([0.1, 0.5, 1.0, 2.0, 3.0], vals)
            B = Interval(0.1, 3.0)
            alpha = median(b, B, M1)  # checks its own post-conditions
            assert math.isfinite(alpha)

    def test_postcondition_raises_package_error(self, monkeypatch):
        monkeypatch.setattr(bmo, "_side_masses", lambda *args: (math.inf, math.inf))
        with pytest.raises(PostconditionError):
            median(LOGB, Interval(1, 3), M1)

    def test_postcondition_survives_optimize_flag(self):
        code = (
            "import math\n"
            "from besselweights import bmo\n"
            "from besselweights.errors import PostconditionError\n"
            "from besselweights.measure import BesselMeasure, FuncExpr, Interval\n"
            "print(__debug__)\n"
            "bmo._side_masses = lambda *args: (math.inf, math.inf)\n"
            "try:\n"
            "    bmo.median(FuncExpr.log_of_mu_density(1.0), Interval(1, 3), BesselMeasure(1.0))\n"
            "except PostconditionError:\n"
            "    print('raised')\n"
        )
        src = os.path.dirname(os.path.dirname(besselweights.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.stdout.split() == ["False", "raised"], out.stderr


class TestTriangleNorm:
    def test_constant_is_zero(self):
        rep = bmo_triangle_norm(FuncExpr.constant(2.0), M1, small_family())
        assert rep.norm_estimate == pytest.approx(0.0, abs=1e-12)

    def test_log_endpoint_closed_form(self):
        # the right-endpoint-centered absolute integral matches the closed form
        rng = np.random.default_rng(8)
        for lam in (0.5, 1.0, 2.0):
            m = BesselMeasure(lam)
            b = FuncExpr.log_of_mu_density(lam)
            for _ in range(25):
                a = float(10.0 ** rng.uniform(-4, 1))
                bb = a * float(10.0 ** rng.uniform(0.05, 1.5))
                B = Interval(a, bb)
                center = 2.0 * lam * math.log(bb)
                dev = (b - center).restrict(B).abs()
                val = dev.integrate(B, dmu(m))
                assert val == pytest.approx(
                    log_mu_oscillation_endpoint_form(lam, B), rel=1e-12
                )

    def test_log_zero_based_interval_closed_form(self):
        B = Interval(0.0, 1.0)
        dev = (LOGB - 0.0).restrict(B).abs()
        val = dev.integrate(B, dmu(M1))
        assert val == pytest.approx(log_mu_oscillation_endpoint_form(1.0, B), rel=1e-12)

    def test_log_norm_finite_over_families(self):
        rep = bmo_triangle_norm(LOGB, M1, IntervalFamily.standard(10, seed=2))
        assert math.isfinite(rep.norm_estimate)
        assert rep.norm_estimate > 0.1

    def test_linear_symbol_unbounded(self):
        b = FuncExpr.power(1.0, 1.0)
        fam_small = IntervalFamily(
            "growing", tuple(Interval(0.0, 2.0**j) for j in range(4))
        )
        fam_big = IntervalFamily(
            "growing", tuple(Interval(0.0, 2.0**j) for j in range(12))
        )
        r1 = bmo_triangle_norm(b, M1, fam_small)
        r2 = bmo_triangle_norm(b, M1, fam_big)
        assert r2.norm_estimate > 8 * r1.norm_estimate


class TestWeightedNorm:
    def test_constant_zero(self):
        rep = weighted_bmo_norm(FuncExpr.constant(1.0), Weight.one(), 2.0, M1, small_family())
        assert rep.norm_estimate == pytest.approx(0.0, abs=1e-10)

    def test_sawtooth_hand_value(self):
        # w = 1, p = 1, Lebesgue-like: plain mean oscillation of a step
        b = FuncExpr.piecewise_constant([0.0, 0.5, 1.0], [0.0, 1.0])
        B = Interval(0, 1)
        val = p_oscillation(b, Weight.one(), 1.0, M0, B)
        assert val == pytest.approx(0.5, rel=1e-7)

    def test_embedding_forward_direction(self):
        # triangle-BMO controls weighted p-BMO for in-class power weights
        fam = small_family(3)
        w = Weight.power(1.0)
        for p in (1.0, 2.0):
            rep_w = weighted_bmo_norm(LOGB, w, p, M1, fam)
            rep_t = bmo_triangle_norm(LOGB, M1, fam)
            assert rep_w.norm_estimate <= 25.0 * rep_t.norm_estimate

    def test_embedding_reverse_per_interval(self):
        # (1/mu(B)) int |b-b_B| dmu <= [w]^{1/p} ((1/w(B)) int |b-b_B|^p w dx)^{1/p}
        lam, p = 1.0, 2.0
        m = BesselMeasure(lam)
        w = Weight.power(1.5)
        fam = small_family(9)
        tag = TildeAp(p, lam - 0.5)
        cw = weight_constant(w, tag, IntervalFamily.standard(10, seed=1))
        assert not cw.divergent
        for B in fam.intervals[:40]:
            lhs = triangle_oscillation(LOGB, m, B)
            rhs = cw.value ** (1.0 / p) * p_oscillation(LOGB, w, p, m, B)
            assert lhs <= rhs * (1 + 1e-9)


def log_oscillation_oracle(lam, B, p, alpha):
    """((1/w(B)) int_B |b - b_B|^p w dx)^{1/p} to 40 digits, for b = log
    x^{2 lam}, w = x^alpha and b_B the mu-average; the triangle oscillation
    at p = 1, alpha = 2 lam.  Integrated in u = log x, split at the root."""
    with mp.workdps(40):
        lam, p, alpha = map(mp.mpf, (lam, p, alpha))
        a, b, k, e = mp.mpf(B.a), mp.mpf(B.b), 2 * lam + 1, alpha + 1
        anti = lambda x: x**k * (mp.log(x) / k - 1 / k**2) if x > 0 else mp.mpf(0)
        c = 2 * lam * (anti(b) - anti(a)) / ((b**k - a**k) / k)
        u0, u1, r = (mp.log(a) if a > 0 else -mp.inf), mp.log(b), c / (2 * lam)
        pts = [u0] + ([r] if u0 < r < u1 else []) + [u1]
        val = mp.quad(lambda u: abs(2 * lam * u - c) ** p * mp.exp(e * u), pts)
        return float((val / ((b**e - a**e) / e)) ** (1 / p))


OSCILLATION_INTERVALS = [Interval(0.5, 2.0), Interval(0.0, 3.0), Interval(1e-3, 1.0)]


class TestLogSymbolOscillationOracle:
    """Both L^p flavours of the log symbol take `lp_integral`'s power-log
    route: finite, zero-based and wide (b/a = 1e3) intervals."""

    @pytest.mark.parametrize("B", OSCILLATION_INTERVALS)
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_triangle(self, lam, B):
        got = triangle_oscillation(FuncExpr.log_of_mu_density(lam), BesselMeasure(lam), B)
        assert got == pytest.approx(log_oscillation_oracle(lam, B, 1.0, 2.0 * lam), rel=1e-13)

    @pytest.mark.parametrize("B", OSCILLATION_INTERVALS)
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("alpha", [-0.5, 1.5])
    def test_weighted(self, alpha, p, B):
        got = p_oscillation(LOGB, Weight.power(alpha), p, M1, B)
        assert got == pytest.approx(log_oscillation_oracle(1.0, B, p, alpha), rel=1e-13)

    def test_no_root_scan(self, root_scans):
        B = Interval(0.5, 2.0)
        triangle_oscillation(LOGB, M1, B)
        p_oscillation(LOGB, Weight.power(1.5), 2.0, M1, B)
        assert root_scans == []


class TestMedianNorm:
    def test_constant_zero(self):
        assert median_oscillation(FuncExpr.constant(5.0), Weight.one(), 0.5, Interval(0, 1)) == 0.0

    def test_indicator_half_split(self):
        b = FuncExpr.indicator(Interval(0.0, 0.5))
        val = median_oscillation(b, Weight.one(), 0.5, Interval(0, 1))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_chebyshev_one_sided_bound(self):
        # s^{1/p} * median_quantity(B) <= p_oscillation(B) per interval
        rng = np.random.default_rng(12)
        w = Weight.one()
        for _ in range(60):
            vals = list(rng.uniform(-1, 3, size=4))
            b = FuncExpr.piecewise_constant([0.2, 0.7, 1.3, 2.0, 2.8], vals)
            B = Interval(0.2, 2.8)
            p = float(rng.uniform(1.0, 3.0))
            s = float(rng.uniform(0.05, 0.5))
            med = median_oscillation(b, w, s, B)
            posc = p_oscillation(b, w, p, M1, B)
            assert s ** (1.0 / p) * med <= posc * (1 + 1e-9)

    def test_report_flavor(self):
        rep = bmo_median_norm(LOGB, Weight.one(), 0.25, IntervalFamily.random(20, seed=5))
        assert "median" in rep.flavor
        assert math.isfinite(rep.norm_estimate)


def _window_closed_form_x1max(B, alpha, s):
    """x1max with w((x1max, B.b)) = (1 - s) w(B) for w = t^alpha, in mpmath."""
    e = mp.mpf(alpha) + 1
    a, b = mp.mpf(B.a), mp.mpf(B.b)
    return (b**e - (1 - mp.mpf(s)) * (b**e - a**e)) ** (1 / e)


class TestWindowScan:
    """median_oscillation of one monotone piece: half the smallest spread of
    b over windows of w-mass (1 - s) w(B), against mpmath closed forms."""

    INTERVALS = [Interval(0.0, 2.0), Interval(0.01, 0.03), Interval(0.3, 2.5),
                 Interval(0.125, 2.0), Interval(1.0, 1.01), Interval(3.0, 40.0)]

    def test_log_symbol_closed_form(self):
        # |b(x2) - b(x1)| = 2 lam log(x2/x1) decreases in x1: optimum x1 = x1max
        mp.mp.dps = 40
        for lam in (0.5, 1.0, 2.5):
            b = FuncExpr.log_of_mu_density(lam)
            for w, alpha in ((Weight.power(1.0), 1.0), (Weight.one(), 0.0)):
                for B in self.INTERVALS:
                    for s in (0.1, 0.25, 0.5):
                        exact = lam * mp.log(B.b / _window_closed_form_x1max(B, alpha, s))
                        val = median_oscillation(b, w, s, B)
                        assert val == pytest.approx(float(exact), rel=1e-12)

    def test_interior_optimum_log_cubed(self):
        # (log x)^3 is flat at x = 1, so the best window is interior
        mp.mp.dps = 40
        B, s = Interval(0.1, 10.0), 0.25
        need = (1 - mp.mpf(s)) * (mp.mpf(B.b) - mp.mpf(B.a))
        spread = lambda x: mp.log(x + need) ** 3 - mp.log(x) ** 3
        x_star = mp.findroot(lambda x: mp.diff(spread, x), (0.5, 1.0), solver="anderson")
        x1max = mp.mpf(B.b) - need
        assert mp.mpf(B.a) < x_star < x1max
        assert spread(x_star) < min(spread(mp.mpf(B.a)), spread(x1max))
        val = median_oscillation(FuncExpr.log_power(1.0, 0.0, 3), Weight.one(), s, B)
        assert val == pytest.approx(float(spread(x_star) / 2), rel=1e-12)

    def test_decreasing_symbol(self):
        # b = 1/x: the spread 1/x1 - 1/x2 also decreases in x1
        mp.mp.dps = 40
        b = FuncExpr.power(1.0, -1.0)
        for w, alpha in ((Weight.power(1.0), 1.0), (Weight.one(), 0.0)):
            for B in self.INTERVALS[1:]:
                exact = (1 / _window_closed_form_x1max(B, alpha, 0.25) - 1 / mp.mpf(B.b)) / 2
                val = median_oscillation(b, w, 0.25, B)
                assert val == pytest.approx(float(exact), rel=1e-12)


class TestMassNearZero:
    """b = 2 log x under w = x^-0.99 on (0, 1): w((0, x)) = 100 x^0.01, so
    the cuts that matter sit at 1e-30 to 1e-61, far below 1e-15 |B|."""

    B = Interval(0.0, 1.0)
    W = Weight.power(-0.99)

    def test_median(self):
        # w((0, x)) = 50 at x = 2^-100
        assert median(LOGB, self.B, self.W) == pytest.approx(200 * math.log(0.5), rel=1e-12)

    def test_quantile_threshold(self):
        # in v = x^0.01 the tail at c = 200 ln(1/2) is 100 (1 - sinh(t/200)),
        # which is 50 at exp(t/200) = (1 + sqrt 5)/2
        val = quantile_threshold(LOGB, 200 * math.log(0.5), self.B, self.W, 0.5)
        assert val == pytest.approx(200 * math.log((1 + math.sqrt(5)) / 2), rel=1e-12)

    def test_median_oscillation(self):
        # the best window is [4^-100, 1], of spread 200 ln 4
        val = median_oscillation(LOGB, self.W, 0.25, self.B)
        assert val == pytest.approx(100 * math.log(4), rel=1e-12)


class TestMassCut:
    """`_cut` inverts c x^e dx on R_+ in closed form, agreeing with the
    `monotone_inverse` route that every other measure takes."""

    REFS = [BesselMeasure(0.5), BesselMeasure(1.0), BesselMeasure(2.5)] + [
        Weight.power(alpha) for alpha in (-0.99, -1.0, -2.0, 0.0, 1.0)]

    @staticmethod
    def _inverse(ref, a, target, hi):
        return monotone_inverse(lambda x: bmo._mass(ref, a, x), target, a, hi)

    def test_closed_form_matches_the_inverse(self, monkeypatch):
        cases = []
        for ref in self.REFS:
            finite_at_zero = isinstance(ref, BesselMeasure) or ref.expr.pieces[0].atoms[0][1] > -1
            for a in (0.0, 0.3, 2.0) if finite_at_zero else (0.3, 2.0):
                hi = 4.0 * a + 1.0
                total = mass_of(ref, Interval(a, hi))
                for target in (1e-300, 1e-100, 1e-12 * total, 0.3 * total, 0.9 * total):
                    cases += [(ref, a, target, end) for end in (hi, math.inf)]
                cases += [(ref, a, 0.0, hi), (ref, a, 2.0 * total, hi)]
        expected = [self._inverse(*case) for case in cases]
        monkeypatch.setattr(bmo, "monotone_inverse", None)  # the closed form takes no inverse
        for case, x in zip(cases, expected):
            assert bmo._cut(*case) == pytest.approx(x, rel=1e-12, abs=0.0)
            if case[2] == 0.0:
                assert bmo._cut(*case) == case[1]  # a target of 0 returns a

    def test_unreachable_mass(self):
        # x^-2 carries mass 1 on (1, inf)
        w = Weight.power(-2.0)
        assert bmo._cut(w, 1.0, 1.5, math.inf) == math.inf == self._inverse(w, 1.0, 1.5, math.inf)
        with pytest.raises(ConstructionError):  # w((1, 2)) = 1/2, enlarged to 5/4
            median_stability_check(LOGB, Interval(1.0, 2.0), 1.5, 0.25, w)

    def test_other_measures_take_the_inverse(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bmo, "monotone_inverse",
                            lambda *args: calls.append(args) or monotone_inverse(*args))
        w1 = Weight(FuncExpr.piecewise_constant([0.0, 1.0, 3.0], [1.0, 2.0]))
        w2 = Weight(FuncExpr.power(1.0, 1.0).restrict(Interval(0.0, 5.0)))
        for w in (w1, w2):
            for target in (0.2, 1.5, 3.0):
                assert bmo._cut(w, 0.5, target, 4.0) == self._inverse(w, 0.5, target, 4.0)
        assert len(calls) == 6


class TestGenericSymbol:
    """(log x)^2 on (1/e, e) under dx is neither a step nor monotone.  With
    u = log x in (-1, 1) and dx = e^u du, {b > g} has mass
    2 (sinh 1 - sinh sqrt(g)), which gives every oracle below."""

    B = Interval(math.exp(-1.0), math.exp(1.0))
    b = FuncExpr.log_power(1.0, 0.0, 2)

    def test_against_mpmath(self):
        mp.mp.dps = 40
        w, sh1 = Weight.one(), mp.sinh(1)
        assert median(self.b, self.B, w) == pytest.approx(
            float(mp.asinh(sh1 / 2) ** 2), rel=1e-11)
        # c = 0.2, s = 0.25: {|b - c| > t} = {u^2 > c + t} + {u^2 < c - t}
        c, s = mp.mpf("0.2"), mp.mpf("0.25")
        tail = lambda t: 2 * (sh1 - mp.sinh(mp.sqrt(c + t))) + (
            2 * mp.sinh(mp.sqrt(c - t)) if t < c else 0)
        exact = mp.findroot(lambda t: tail(t) - 2 * s * sh1, (mp.mpf("0.21"), mp.mpf("0.7")),
                            solver="anderson")
        assert quantile_threshold(self.b, 0.2, self.B, w, 0.25) == pytest.approx(
            float(exact), rel=1e-11)
        # the best value window is [0, r^2] with 2 sinh r = (1 - s) 2 sinh 1
        best = mp.asinh((1 - s) * sh1) ** 2 / 2
        assert median_oscillation(self.b, w, 0.25, self.B) == pytest.approx(
            float(best), rel=1e-9)
        # {|b| > g} has mass 1 at sinh sqrt(g) = sinh 1 - 1/2
        assert rearrangement(self.b.restrict(self.B), w, 1.0, hull=self.B) == pytest.approx(
            float(mp.asinh(sh1 - mp.mpf(1) / 2) ** 2), rel=1e-11)
        # the tail is continuous, so the local mean oscillation at 1/4 has
        # the median oscillation at s = 1/4 as its infimum
        a_check, a_med = local_mean_oscillation(self.b, self.B, 0.25, w)
        assert float(best) * (1 - 1e-9) <= a_check <= a_med


    def test_zero_based_interval(self):
        # on (0, 1) under dx, x log x tends to 0 at 0+ and u^3 - u (u = log x)
        # to -inf, so the second value range has an infinite end
        mp.mp.dps = 40
        B, w, half = Interval(0.0, 1.0), Weight.one(), mp.mpf(1) / 2
        # {x log x > g} = (0, e^{W_-1(g)}) + (e^{W_0(g)}, 1)
        mass_xlogx = lambda g: (mp.exp(mp.lambertw(g, -1)).real + 1
                                - mp.exp(mp.lambertw(g, 0)).real)
        exact = mp.findroot(lambda g: mass_xlogx(g) - half, (-0.36, -0.01), solver="anderson")
        assert median(FuncExpr.log_power(1.0, 1.0, 1), B, w) == pytest.approx(
            float(exact), rel=1e-10)

        # for 0 < g < 2/(3 sqrt 3), {u^3 - u > g} is (u1, u2) with u1 < u2 < 0
        def mass_cubic(g):
            u1, u2 = sorted(mp.re(z) for z in mp.polyroots([1, 0, -1, -g]) if mp.re(z) < 0)
            return mp.exp(u2) - mp.exp(u1)

        exact = mp.findroot(lambda g: mass_cubic(g) - half, (0.01, 0.38), solver="anderson")
        b = FuncExpr.log_power(1.0, 0.0, 3) + FuncExpr.log_power(-1.0, 0.0, 1)
        assert median(b, B, w) == pytest.approx(float(exact), rel=1e-10)

    def test_median_at_a_flat_run(self):
        # L = log x on (0.5, 1) and (2, 2.5), a gap between: under dx the
        # median is the gap's value 0, where w({b > g}) jumps; a value search
        # lands a few ulps off it and the post-condition used to raise
        L = FuncExpr.log_power(1.0, 0.0, 1)
        b = L.restrict(Interval(0.5, 1.0)) + L.restrict(Interval(2.0, 2.5))
        assert median(b, Interval(0.5, 2.5), Weight.one()) == 0.0
        assert median(b, Interval(0.5, 2.0), Weight.one()) == 0.0


class TestStepPlusCurve:
    """Symbols mixing a scaled log x cell, a constant cell and a (log x)^2
    cell, with gaps between them: neither a step nor one monotone run."""

    @staticmethod
    def _cases(n, seed):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            pts = [float(x) for x in np.sort(rng.uniform(0.1, 4.0, size=6))]
            cells = [FuncExpr.log_power(float(rng.uniform(-2, 2)), 0.0, 1),
                     FuncExpr.constant(float(rng.uniform(-1, 1))),
                     FuncExpr.log_power(float(rng.uniform(-2, 2)), 0.0, 2)]
            rng.shuffle(cells)
            b = FuncExpr.sum(f.restrict(Interval(pts[2 * i], pts[2 * i + 1]))
                             for i, f in enumerate(cells))
            w = Weight.one() if rng.uniform() < 0.5 else Weight.power(1.0)
            yield b, Interval(pts[0], pts[5]), w, float(rng.uniform(0.05, 0.5))

    def test_median_and_centre_infima(self):
        # the threshold is 1-Lipschitz in c, so a scan of c with spacing h
        # encloses the infimum over c in [min - h/2, min]
        for b, B, w, s in self._cases(20, seed=5):
            median(b, B, w)  # checks its own post-conditions
            lo, hi = b.value_range(B)
            h = (hi - lo) / 200
            scan = min(quantile_threshold(b, lo + k * h, B, w, s) for k in range(201))
            for val in (median_oscillation(b, w, s, B), local_mean_oscillation(b, B, s, w)[0]):
                assert scan - h / 2 <= val <= scan + 1e-12


def _per_candidate_threshold(b, c, B, w, limit, strict):
    """Reference step scan: |b - c| on B built as a FuncExpr for this c."""
    dev = (b - c).restrict(B).abs()
    cells = [(p.atoms[0][0], mass_of(w, Interval(max(p.lo, B.a), min(p.hi, B.b))))
             for p in dev.pieces]
    for cand in [0.0] + sorted({v for v, _ in cells}):
        tail = sum(mass for v, mass in cells if v > cand)
        if (tail < limit) if strict else (tail <= limit):
            return cand
    return max(v for v, _ in cells)


class TestCellTable:
    """The one-table scans of step symbols agree bit for bit with the
    per-candidate construction, with gaps and with B wider than the support."""

    @staticmethod
    def _cases(n, seed):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            k = int(rng.integers(2, 6))
            pts = list(np.sort(rng.uniform(0.1, 3.0, size=k + 1)))
            vals = [0.0 if rng.uniform() < 0.3 else float(v) for v in rng.uniform(-2, 2, k)]
            if not any(vals):
                vals[0] = 1.0
            b = FuncExpr.piecewise_constant(pts, vals)
            lo = float(rng.uniform(0.0, pts[0] * 1.5))
            B = Interval(lo, float(max(lo + 0.05, rng.uniform(pts[1], pts[-1] * 1.5))))
            w = Weight.power(1.0) if rng.uniform() < 0.5 else Weight.one()
            yield rng, b, B, w

    def test_matches_per_candidate_scan(self):
        for rng, b, B, w in self._cases(150, seed=8):
            s = float(rng.uniform(0.05, 0.5))
            frac = float(rng.uniform(0.05, 0.5))
            limit = s * mass_of(w, B) * (1 + 1e-12)
            t_arg = frac * mass_of(w, B)
            vals = sorted({p.atoms[0][0] for p in b.restrict(B).pieces})
            covered = sum(p.hi - p.lo for p in b.restrict(B).pieces)
            if covered < B.length * (1 - 1e-12):
                vals.append(0.0)
            cands = {0.5 * (v1 + v2) for v1 in vals for v2 in vals}
            for c in cands | {float(rng.uniform(-2, 2))}:
                assert quantile_threshold(b, c, B, w, s) == _per_candidate_threshold(
                    b, c, B, w, limit, False)
                assert rearrangement((b - c).restrict(B), w, t_arg, hull=B) == (
                    _per_candidate_threshold(b, c, B, w, t_arg * (1 - 1e-14), True))
            assert median_oscillation(b, w, s, B) == min(
                _per_candidate_threshold(b, c, B, w, limit, False) for c in cands)
            alpha = median(b, B, w)
            # reference median: the first candidate value whose superlevel set,
            # built by sign splitting, holds at most half the mass
            half = 0.5 * mass_of(w, B)
            assert alpha == next(v for v in sorted(set(vals))
                                 if superlevel_measure(b, v, B, w) <= half * (1 + 1e-12))
            ref = lambda c: _per_candidate_threshold(b, c, B, w, t_arg * (1 - 1e-14), True)
            assert local_mean_oscillation(b, B, frac, w) == (
                min(ref(c) for c in cands | {alpha}), ref(alpha))
            H = b.support_bounds()
            assert rearrangement(b, w, t_arg) == _per_candidate_threshold(
                b, 0.0, H, w, t_arg * (1 - 1e-14), True)


    def test_median_reads_its_half_masses_from_the_table(self, monkeypatch):
        """A step symbol's median checks both half masses against its cell
        table; they equal the sign-split superlevel masses, at a tie too."""
        tie = FuncExpr.piecewise_constant([0.0, 0.5, 1.0], [1.0, 2.0])  # {b > 1} holds half
        cases = [(tie, Interval(0.0, 1.0), Weight.one())]
        cases += [(b, B, w) for _, b, B, w in self._cases(60, seed=9)]
        sided = []
        for b, B, w in cases:
            sym = bmo._classify(b, B, w)
            alpha = bmo._median(sym)
            above = sum(mass for u, mass in sym.cells if u > alpha)
            below = sum(mass for u, mass in sym.cells if u < alpha)
            assert above == superlevel_measure(b, alpha, B, w)
            assert below == superlevel_measure(-b, -alpha, B, w)
            sided.append((alpha, above))
        assert sided[0] == (1.0, 0.5)
        monkeypatch.setattr(bmo, "superlevel_measure", lambda *args: math.inf)
        assert [median(b, B, w) for b, B, w in cases] == [alpha for alpha, _ in sided]


class TestRearrangement:
    def test_scaled_indicator(self):
        c, E = 2.5, Interval(0.5, 1.0)
        b = FuncExpr.indicator(E, c)
        w = Weight.one()
        wE = w.mass(E)
        assert rearrangement(b, w, wE * 0.5) == pytest.approx(c, rel=1e-10)
        assert rearrangement(b, w, wE * 0.999) == pytest.approx(c, rel=1e-10)
        assert rearrangement(b, w, wE * 1.001) == pytest.approx(0.0, abs=1e-9)

    def test_zero_function(self):
        assert rearrangement(FuncExpr.zero(), Weight.one(), 0.3) == 0.0

    def test_nonincreasing_in_t(self):
        rng = np.random.default_rng(3)
        b = FuncExpr.piecewise_constant([0.1, 0.4, 0.9, 1.5], [1.0, 3.0, 0.5])
        w = Weight.power(0.5)
        ts = np.linspace(0.01, 2.0, 25)
        vals = [rearrangement(b, w, float(t)) for t in ts]
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_equimeasurability(self):
        b = FuncExpr.piecewise_constant([0.1, 0.4, 0.9, 1.5], [1.0, 3.0, 0.5])
        w = Weight.one()
        H = Interval(0.1, 1.5)
        for gamma in (0.25, 0.75, 1.5, 2.9):
            wmass = superlevel_measure(b.restrict(H).abs(), gamma, H, w)
            # Lebesgue measure of {s : b*(s) > gamma}
            ss = np.linspace(1e-4, w.mass(H), 600)
            star = [rearrangement(b, w, float(s)) for s in ss]
            leb = float(np.sum(np.array(star) > gamma) * (ss[1] - ss[0]))
            assert leb == pytest.approx(wmass, abs=1.5e-2)


class TestLocalMeanOscillation:
    def test_constant(self):
        a_check, a_med = local_mean_oscillation(
            FuncExpr.constant(1.0), Interval(0.5, 1.0), 0.5, Weight.one()
        )
        assert a_check == pytest.approx(0.0, abs=1e-12)
        assert a_med == pytest.approx(0.0, abs=1e-12)

    def test_indicator_regression(self):
        b = FuncExpr.indicator(Interval(0.0, 0.5))
        a_check, a_med = local_mean_oscillation(b, Interval(0, 1), 0.5, Weight.one())
        # brute-force oracle over a dense c grid
        w = Weight.one()
        B = Interval(0, 1)
        t_arg = 0.5 * w.mass(B)
        brute = min(
            rearrangement((b - float(c)).restrict(B), w, t_arg, hull=B)
            for c in np.linspace(-0.5, 1.5, 501)
        )
        assert a_check == pytest.approx(brute, abs=1e-9)
        assert a_check <= a_med <= 2 * a_check + 1e-12

    def test_sandwich_on_seeded_suite(self):
        rng = np.random.default_rng(21)
        w = Weight.one()
        for _ in range(200):
            vals = list(rng.uniform(-2, 2, size=3))
            b = FuncExpr.piecewise_constant([0.2, 0.8, 1.4, 2.2], vals)
            B = Interval(0.2, 2.2)
            lam_frac = float(rng.uniform(0.05, 0.5))  # the sandwich needs <= 1/2
            a_check, a_med = local_mean_oscillation(b, B, lam_frac, w)
            assert a_check <= a_med * (1 + 1e-9)
            assert a_med <= 2 * a_check * (1 + 1e-9) + 1e-12


class TestMedianStability:
    def test_constant_lhs_zero(self):
        lhs, _ = median_stability_check(
            FuncExpr.constant(2.0), Interval(0.5, 1.0), 0.1, 0.5, Weight.one()
        )
        assert lhs == pytest.approx(0.0, abs=1e-12)

    def test_monotone_continuity(self):
        lhs_small, _ = median_stability_check(LOGB, Interval(1, 2), 0.001, 0.5, Weight.one())
        lhs_big, _ = median_stability_check(LOGB, Interval(1, 2), 0.2, 0.5, Weight.one())
        assert lhs_small < lhs_big

    def test_continuous_symbol_at_half(self):
        # for continuous monotone symbols the bound holds even at fraction 1/2
        rng = np.random.default_rng(41)
        w = Weight.one()
        for _ in range(50):
            a = float(10.0 ** rng.uniform(-2, 1))
            B = Interval(a, a * float(rng.uniform(1.5, 6.0)))
            eps = float(rng.uniform(0.01, 0.3))
            lhs, rhs = median_stability_check(LOGB, B, eps, 0.5, w)
            assert lhs <= rhs * (1 + 1e-9) + 1e-12
            # the exact infimum over c is at most the minimum over the
            # 64-point value grid plus the median that it replaced
            a_check, a_med = local_mean_oscillation(LOGB, B, 0.5, w)
            xs = np.geomspace(B.a, B.b * (1 - 1e-12), 65)
            grid = list(np.linspace(LOGB(B.a), LOGB(float(xs[-1])), 64)) + [median(LOGB, B, w)]
            t_arg = 0.5 * w.mass(B)
            a_grid = min(rearrangement((LOGB - float(c)).restrict(B), w, t_arg, hull=B)
                         for c in grid)
            assert a_check <= a_grid
            assert a_check <= a_med == rhs

    def test_inequality_seeded(self):
        rng = np.random.default_rng(31)
        w = Weight.one()
        for _ in range(200):
            vals = list(rng.uniform(-1, 1, size=3))
            b = FuncExpr.piecewise_constant([0.2, 0.8, 1.4, 2.2], vals)
            B = Interval(0.2, 2.2)
            eps = float(rng.uniform(0.01, 0.4))
            # valid hypothesis range: the mass fraction must stay below (1-eps)/2
            lam_frac = (1.0 - eps) / 2.0 - 1e-9
            lhs, rhs = median_stability_check(b, B, eps, lam_frac, w)
            assert lhs <= rhs * (1 + 1e-9) + 1e-12

    def test_reads_no_infimum_over_centres(self, monkeypatch):
        """The check reads the median and the threshold at it; the infimum over
        centres, which it would discard, is never computed."""
        calls, scan = [], bmo._centre_infimum
        monkeypatch.setattr(bmo, "_centre_infimum", lambda *a: calls.append(a) or scan(*a))
        rng = np.random.default_rng(17)
        w = Weight.one()
        for _ in range(5):
            step = FuncExpr.piecewise_constant([0.2, 0.8, 1.4, 2.2], list(rng.uniform(-1, 1, size=3)))
            a = float(10.0 ** rng.uniform(-2, 1))
            for b, B in ((step, Interval(0.2, 2.2)), (LOGB, Interval(a, 3.0 * a))):
                median_stability_check(b, B, float(rng.uniform(0.01, 0.3)), 0.3, w)
        assert calls == []
        local_mean_oscillation(LOGB, Interval(1.0, 2.0), 0.3, w)  # which does need it
        assert len(calls) == 1

    @pytest.mark.parametrize("lambda_frac", [0.0, 1.5, -1.0])
    def test_rejects_a_fraction_outside_the_unit_interval(self, lambda_frac):
        # as local_mean_oscillation does, instead of returning sup |b - alpha|, 0 or inf
        with pytest.raises(ValueError, match="lambda_frac"):
            median_stability_check(LOGB, Interval(1.0, 2.0), 0.1, lambda_frac, Weight.one())


class TestScaleInvarianceAndQuantileThreshold:
    def test_log_small_scale_defect_persists(self):
        # oscillation of log x^{2 lam} on (0, r) is scale-invariant and positive
        vals = [
            triangle_oscillation(LOGB, M1, Interval(0.0, r)) for r in (1.0, 0.1, 0.01)
        ]
        assert all(v == pytest.approx(vals[0], rel=1e-9) for v in vals)
        assert vals[0] > 0.3  # regression anchor for the lam = 1 constant

    def test_quantile_threshold_exactness(self):
        b = FuncExpr.piecewise_constant([0.0, 0.25, 0.5, 1.0], [3.0, 1.0, 0.0])
        w = Weight.one()
        B = Interval(0, 1)
        # |b - 0| > t tails: t=0 -> mass 0.5; target s=0.5: t=0 qualifies
        assert quantile_threshold(b, 0.0, B, w, 0.5) == pytest.approx(0.0)
        # s = 0.3: need tail <= 0.3: t = 1 gives {3} mass .25 <= .3
        assert quantile_threshold(b, 0.0, B, w, 0.3) == pytest.approx(1.0)


class TestExponentialIntegrability:
    def test_exp_gauge_of_centered_symbol_controlled_by_norm(self):
        # Luxemburg gauge at the exponential scale of b - b_B is bounded by a
        # fixed multiple of the triangle norm, uniformly over intervals
        from besselweights.orlicz import exp_m1, luxemburg_norm

        b = LOGB
        fam = IntervalFamily.random(25, seed=9, lo_exp=-3.0, hi_exp=1.0)
        norm = bmo_triangle_norm(b, M1, IntervalFamily.standard(10, seed=9)).norm_estimate
        worst = 0.0
        for B in fam.intervals:
            val = luxemburg_norm((b - M1.average(b, B)).restrict(B), exp_m1(), B, M1)
            worst = max(worst, val / norm)
        assert worst <= 12.0  # recorded constant for the exponential gauge

    def test_small_parameter_exponential_means_bounded(self):
        # (1/mu(B)) int exp(s |b - b_B|) dmu stays uniformly bounded for small s
        from besselweights.measure import integrate_callable, dmu

        b = LOGB
        fam = IntervalFamily.random(20, seed=10, lo_exp=-3.0, hi_exp=1.0)
        norm = bmo_triangle_norm(b, M1, IntervalFamily.standard(10, seed=10)).norm_estimate
        s = 0.25 / norm
        sup = 0.0
        for B in fam.intervals:
            dev = (b - M1.average(b, B)).restrict(B).abs()
            val = sum(
                integrate_callable(
                    lambda x: math.exp(s * dev(x)), Interval(lo, hi), dmu(M1), rel_tol=1e-8
                )
                for lo, hi, _ in dev.cells(B)
            ) / M1.mu(B)
            sup = max(sup, val)
        assert sup <= 4.0  # recorded uniform constant at this s
