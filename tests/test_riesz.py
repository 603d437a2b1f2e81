"""Tests for the Riesz kernel, separated-ball geometry, and the tail profile."""

import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import besselweights
from besselweights import riesz
from besselweights.errors import ConstructionError, PostconditionError, SupportError
from besselweights.measure import BesselMeasure, FuncExpr, Interval
from besselweights.riesz import (
    MedianSplit,
    RieszKernelEvaluator,
    SeparatedBallPair,
    counterexample_g,
    counterexample_profile,
    kernel_lambda1_closed_form,
    lower_bound_check,
    median_split,
)

E1 = RieszKernelEvaluator(1.0)
M1 = BesselMeasure(1.0)


class TestKernel:
    def test_closed_form_reference_point(self):
        # (x, y) = (2, 1): quadrature matches the u = cos(theta) closed form
        assert E1.kernel(2.0, 1.0) == pytest.approx(
            kernel_lambda1_closed_form(2.0, 1.0), rel=1e-9
        )

    def test_closed_form_random_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            x = float(10.0 ** rng.uniform(-2, 2))
            ratio = float(10.0 ** rng.uniform(-0.75, 0.75))
            y = x * ratio
            if abs(x - y) < 1e-3 * max(x, y):
                continue
            assert E1.kernel(x, y) == pytest.approx(
                kernel_lambda1_closed_form(x, y), rel=1e-9
            )

    def test_small_y_limit(self):
        # K(2, y->0) -> -(4/pi) / 8
        val = E1.kernel(2.0, 1e-6)
        assert val == pytest.approx(-(4.0 / math.pi) / 8.0, rel=1e-4)

    def test_sign_structure(self):
        assert E1.kernel(1.0, 2.0) > 0.0
        assert E1.kernel(2.0, 1.0) < 0.0
        for lam in (0.3, 0.5, 2.0):
            ev = RieszKernelEvaluator(lam)
            assert ev.kernel(1.0, 3.0) > 0.0
            assert ev.kernel(3.0, 1.0) < 0.0
            for sep in (1e-7, 1e-12):
                assert ev.kernel(1.0, 1.0 + sep) > 0.0
                assert ev.kernel(1.0, 1.0 - sep) < 0.0

    def test_against_mpmath_hypergeometric(self):
        # K = (1/pi) dJ/dx, J = M^{-2 lam} B(lam, 1/2) 2F1(lam, 1/2; lam + 1/2; (m/M)^2)
        # (Gradshteyn-Ryzhik 3.665.2), differentiated by mpmath at 50 digits
        pairs = [(1.0, 1.0 + 1e-7), (1.0, 1.0 - 1e-7), (1.0, 1.0 - 1e-12),
                 (1e-30, 3e-30), (3e20, 1e20)]
        with mp.workdps(50):
            for lam in (0.3, 0.5, 1.0, 2.0):
                ev = RieszKernelEvaluator(lam)
                L = mp.mpf(lam)

                def J(x, y):
                    M, m = max(x, y), min(x, y)
                    return M ** (-2 * L) * mp.beta(L, 0.5) * mp.hyp2f1(L, 0.5, L + 0.5, (m / M) ** 2)

                for x, y in pairs:
                    ref = mp.diff(lambda t: J(t, mp.mpf(y)), mp.mpf(x)) / mp.pi
                    assert ev.kernel(x, y) == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    def test_diagonal_raises(self):
        with pytest.raises(SupportError):
            E1.kernel(1.0, 1.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        for lam in (0.3, 1.0, 2.0):
            ev = RieszKernelEvaluator(lam)
            for _ in range(20):
                x = float(10.0 ** rng.uniform(-1, 1))
                y = x * float(10.0 ** rng.uniform(0.05, 0.6))
                for s in (2.0, 10.0):
                    k1 = ev.kernel(s * x, s * y)
                    k0 = ev.kernel(x, y)
                    assert k1 == pytest.approx(
                        s ** -(2 * lam + 1) * k0, rel=1e-8
                    )

    def test_grid_matches_scalar(self):
        for lam in (0.3, 0.5, 1.0, 2.0):
            ev = RieszKernelEvaluator(lam)
            xs = np.linspace(1.0, 2.0, 4)[:, None]
            ys = np.linspace(7.0, 8.0, 4)[None, :]
            G = ev.kernel_grid(xs, ys)
            for i, x in enumerate(xs.ravel()):
                for j, y in enumerate(ys.ravel()):
                    want = ev.kernel(float(x), float(y))
                    assert G[i, j] == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_off_diagonal_size_envelope(self):
        # |K(x,y)| <= C / mu(ball around the pair of radius |x-y|), the
        # standard kernel-size envelope; record finiteness of the constant
        rng = np.random.default_rng(3)
        consts = []
        for _ in range(100):
            x = float(10.0 ** rng.uniform(-1.5, 1.5))
            y = x * float(10.0 ** rng.uniform(-0.6, 0.6))
            if abs(x - y) < 1e-3 * max(x, y):
                continue
            r = abs(x - y)
            c = 0.5 * (x + y)
            ball = Interval.clipped(c - r, c + r)
            consts.append(abs(E1.kernel(x, y)) * M1.mu(ball))
        assert all(math.isfinite(c) for c in consts)
        assert max(consts) < 10.0


class TestApply:
    def test_indicator_against_closed_form_quadrature(self):
        from scipy.integrate import quad

        f = FuncExpr.indicator(Interval(1.0, 2.0))
        x = 4.0
        val = E1.riesz_apply(f, x)
        oracle, _ = quad(
            lambda y: kernel_lambda1_closed_form(x, y) * y**2, 1.0, 2.0, limit=400,
            epsabs=1e-15, epsrel=1e-12,
        )
        assert val == pytest.approx(oracle, rel=1e-7)

    def test_linearity(self):
        f = FuncExpr.indicator(Interval(1.0, 2.0))
        g = FuncExpr.indicator(Interval(2.5, 3.0))
        x = 5.0
        combo = E1.riesz_apply(f * 2.0 + g * (-0.5), x)
        parts = 2.0 * E1.riesz_apply(f, x) - 0.5 * E1.riesz_apply(g, x)
        assert combo == pytest.approx(parts, rel=1e-9)

    def test_far_field_decay(self):
        f = FuncExpr.indicator(Interval(1.0, 2.0))
        vals = {x: abs(E1.riesz_apply(f, x)) for x in (10.0, 20.0, 40.0)}
        for x0, x1 in ((10.0, 20.0), (20.0, 40.0)):
            measured = vals[x0] / vals[x1]
            assert measured == pytest.approx(8.0, rel=0.1)

    def test_support_touching_raises(self):
        f = FuncExpr.indicator(Interval(1.0, 2.0))
        with pytest.raises(SupportError):
            E1.riesz_apply(f, 1.5)
        with pytest.raises(SupportError):
            E1.riesz_apply(f, 2.0)

    def test_commutator_constant_symbol(self):
        f = FuncExpr.indicator(Interval(1.0, 2.0))
        val = E1.commutator_apply(FuncExpr.constant(3.0), f, 5.0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_commutator_shift_invariance(self):
        b = FuncExpr.log_of_mu_density(1.0)
        f = FuncExpr.indicator(Interval(1.0, 2.0))
        v1 = E1.commutator_apply(b, f, 6.0)
        v2 = E1.commutator_apply(b + 11.0, f, 6.0)
        assert v1 == pytest.approx(v2, rel=1e-10)

    def test_commutator_matches_tail_profile_shape(self):
        # unit-mu-mass atom near the origin: the commutator reproduces the
        # (log x + c) / x^{2 lam + 1} tail shape up to one constant
        lam, eps = 1.0, 1e-4
        m = BesselMeasure(lam)
        sup = Interval(eps, 2 * eps)
        f = FuncExpr.indicator(sup, 1.0 / m.mu(sup))
        b = FuncExpr.log_of_mu_density(lam)
        g, _ = counterexample_g(lam, eps)
        ratios = []
        for x in np.geomspace(10.0, 100.0, 7):
            val = E1.commutator_apply(b, f, float(x))
            ratios.append(abs(val) / (g(float(x)) / eps ** (2 * lam)))
        assert max(ratios) / min(ratios) < 1.15


class TestSeparatedPairs:
    def test_admissible_pair(self):
        pair = SeparatedBallPair(Interval(1.0, 2.0), Interval(7.0, 8.0), 3.0, 12.0)
        assert pair.radius == pytest.approx(0.5)

    def test_overlapping_rejected(self):
        with pytest.raises(ConstructionError):
            SeparatedBallPair(Interval(1.0, 2.0), Interval(1.5, 2.5), 3.0, 12.0)

    def test_sign_constancy_reference(self):
        pair = SeparatedBallPair(Interval(1.0, 2.0), Interval(7.0, 8.0), 3.0, 12.0)
        ok, min_abs, bound = lower_bound_check(E1, pair, samples=10)
        assert ok
        assert min_abs > 0.0
        # this geometry sits at the far end of the admissible separation range
        assert min_abs >= 0.004 * bound

    def test_scale_invariance_of_ratio(self):
        pair1 = SeparatedBallPair.build(1.5, 0.5, 6.0)
        ref = None
        for s in (1.0, 2.0, 16.0, 128.0):
            pair = SeparatedBallPair.build(1.5 * s, 0.5 * s, 6.0)
            _, min_abs, bound = lower_bound_check(E1, pair, samples=8)
            ratio = min_abs / bound
            if ref is None:
                ref = ratio
            assert ratio == pytest.approx(ref, rel=1e-6)

    def test_seeded_pairs_all_lambdas(self):
        rng = np.random.default_rng(5)
        for lam in (0.3, 0.5, 1.0, 2.0):
            ev = RieszKernelEvaluator(lam)
            for _ in range(12):
                r = float(10.0 ** rng.uniform(-2, 1))
                center = r * float(rng.uniform(1.5, 30.0))
                sep = float(rng.uniform(3.0, 12.0))
                direction = +1 if rng.uniform() < 0.7 or center < (sep + 1) * r else -1
                pair = SeparatedBallPair.build(center, r, sep, direction=direction)
                ok, min_abs, bound = lower_bound_check(ev, pair, samples=6)
                assert ok
                assert min_abs > 0.0


class TestMedianSplit:
    def test_constant_symbol(self):
        pair = SeparatedBallPair(Interval(1.0, 2.0), Interval(7.0, 8.0), 3.0, 12.0)
        split = median_split(FuncExpr.constant(2.0), pair, M1)
        assert split.alpha == pytest.approx(2.0)
        total = sum(M1.mu(iv) for iv in split.Fplus)
        assert total == pytest.approx(M1.mu(pair.Btilde), rel=1e-12)

    def test_log_median_bisection_value(self):
        # increasing symbol on Btilde = (1, 3): median at m = 14^{1/3}
        pair = SeparatedBallPair(Interval(9.0, 11.0), Interval(1.0, 3.0), 3.0, 12.0)
        split = median_split(FuncExpr.log_of_mu_density(1.0), pair, M1)
        assert split.alpha == pytest.approx(2.0 * math.log(14.0 ** (1.0 / 3.0)), rel=1e-9)

    def test_sign_conditions_on_grid(self):
        b = FuncExpr.log_of_mu_density(1.0)
        pair = SeparatedBallPair(Interval(1.0, 2.0), Interval(7.0, 8.0), 3.0, 12.0)
        split = median_split(b, pair, M1)
        # b(x) - b(y) >= 0 on E+ x F- and <= 0 on E- x F+
        values = lambda ivs: [b(float(x)) for iv in ivs
                              for x in np.geomspace(iv.a, iv.b * (1 - 1e-12), 32)]
        inf = math.inf
        assert min(values(split.Eplus), default=inf) >= max(values(split.Fminus)) - 1e-10
        assert max(values(split.Eminus)) <= min(values(split.Fplus), default=inf) + 1e-10

    def test_postcondition_raises_package_error(self, monkeypatch):
        monkeypatch.setattr(riesz, "subtract_intervals", lambda *args: ())
        pair = SeparatedBallPair(Interval(1.0, 2.0), Interval(7.0, 8.0), 3.0, 12.0)
        with pytest.raises(PostconditionError):
            median_split(FuncExpr.log_of_mu_density(1.0), pair, M1)

    def test_postcondition_survives_optimize_flag(self):
        code = (
            "from besselweights import riesz\n"
            "from besselweights.errors import PostconditionError\n"
            "from besselweights.measure import BesselMeasure, FuncExpr, Interval\n"
            "print(__debug__)\n"
            "riesz.subtract_intervals = lambda *args: ()\n"
            "pair = riesz.SeparatedBallPair(Interval(1, 2), Interval(7, 8), 3.0, 12.0)\n"
            "try:\n"
            "    riesz.median_split(FuncExpr.log_of_mu_density(1.0), pair, BesselMeasure(1.0))\n"
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

    def test_partition_of_B(self):
        b = FuncExpr.log_of_mu_density(1.0)
        pair = SeparatedBallPair(Interval(1.0, 2.0), Interval(7.0, 8.0), 3.0, 12.0)
        split = median_split(b, pair, M1)
        mass = sum(M1.mu(iv) for iv in split.Eplus) + sum(M1.mu(iv) for iv in split.Eminus)
        assert mass == pytest.approx(M1.mu(pair.B), rel=1e-12)


class TestTailProfile:
    def test_monotone_divergence(self):
        rows = counterexample_profile(1.0, 1e-3, [1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
        mps = [mp for _, mp in rows]
        assert all(m2 > m1 for m1, m2 in zip(mps, mps[1:]))

    def test_empty_set_above_threshold(self):
        g, x0 = counterexample_g(1.0, 1e-3)
        rows = counterexample_profile(1.0, 1e-3, [2 * g(x0)])
        assert rows[0][1] == 0.0

    def test_logarithmic_slope_anchor(self):
        # t * X_t^{2 lam + 1} = eps^{2 lam} log(X_t / eps): slope per e-fold of
        # X is eps^{2 lam}
        lam, eps = 1.0, 1e-3
        g, x0 = counterexample_g(lam, eps)
        m = BesselMeasure(lam)
        ts = [1e-7, 1e-9, 1e-11]
        Xs = []
        for t in ts:
            hi = x0
            while g(hi) > t:
                hi *= 2
            from scipy.optimize import brentq

            Xs.append(brentq(lambda x: g(x) - t, x0, hi, rtol=1e-13))
        prods = [t * (X ** (2 * lam + 1)) for t, X in zip(ts, Xs)]
        slopes = [
            (p2 - p1) / (math.log(X2) - math.log(X1))
            for (p1, X1), (p2, X2) in zip(zip(prods, Xs), zip(prods[1:], Xs[1:]))
        ]
        for s in slopes:
            assert s == pytest.approx(eps ** (2 * lam), rel=1e-6)

    def test_per_decade_growth_is_logarithmic(self):
        # the product grows without bound but only like log(1/t): per-decade
        # ratios decay toward 1 (this anchors why the counterexample
        # scenario's multiplicative per-decade check reports FAIL)
        rows = counterexample_profile(0.5, 1e-3, [10.0**-k for k in range(3, 11)])
        mps = [mp for _, mp in rows]
        ratios = [m2 / m1 for m1, m2 in zip(mps, mps[1:])]
        assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.2
