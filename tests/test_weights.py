"""Tests for weight-class quantities, constants, duality, and power ranges."""

import math

import numpy as np
import pytest

from besselweights.errors import DivergenceError
from besselweights.measure import DX, BesselMeasure, FuncExpr, Interval, dmu, dnu
from besselweights.weights import (
    ApMu,
    DualPair,
    IntervalFamily,
    TildeA1,
    TildeAp,
    Weight,
    WeightConstantReport,
    ap_mu_quantity,
    dual_weight,
    power_dichotomy,
    power_weight_range,
    tilde_a1_quantity,
    tilde_ap_quantity,
    weight_constant,
)
from besselweights.weights import _products


class TestWeightNonnegativity:
    LOG = FuncExpr.log_power(1.0, 0.0, 1)

    def test_rejects_negative_cells_a_sample_grid_misses(self):
        # roots at 1e7, at e^-20 and at the point 1 where an unbounded cell is cut
        for f in (FuncExpr.constant(1.0) - FuncExpr.power(1e-7, 1.0), self.LOG + 20.0, self.LOG):
            with pytest.raises(ValueError, match="negative"):
                Weight(f)

    def test_accepts_nonnegative_weights(self):
        for f in (
            FuncExpr.constant(1.0) + FuncExpr.power(1.0, 1.0),
            FuncExpr.log_power(1.0, 0.0, 2),
            FuncExpr.piecewise_constant([0.5, 1.0, 2.0, 3.0], [1.0, 0.0, 2.0]),
        ):
            Weight(f)


class TestTildeApQuantity:
    def test_unit_weight_reference_value(self):
        # w=1, p=2, c=1/2, B=(0,1): nu(B)=1/3, factors 3 and 3/5 -> 9/5
        val = tilde_ap_quantity(Weight.one(), 2.0, 0.5, Interval(0, 1))
        assert val == pytest.approx(9.0 / 5.0, rel=1e-13)

    def test_upper_boundary_divergence(self):
        # alpha = p-1+(2c+1)p makes the dual integrand behave like 1/t near 0
        p, c = 2.0, 0.5
        alpha = p - 1 + (2 * c + 1) * p
        w = Weight.power(alpha)
        with pytest.raises(DivergenceError):
            tilde_ap_quantity(w, p, c, Interval(0, 0.5))

    def test_in_range_power_finite_over_family(self):
        p, c = 2.0, 0.5
        w = Weight.power(3.0)  # -1 < 3 < 5
        fam = IntervalFamily.standard(8, seed=1)
        rep = weight_constant(w, TildeAp(p, c), fam)
        assert not rep.divergent
        assert math.isfinite(rep.value)

    def test_jensen_floor(self):
        # product >= 1 always; == 1 exactly when w is the nu-density
        rng = np.random.default_rng(17)
        for _ in range(100):
            alpha = float(rng.uniform(-0.9, 4.0))
            p = float(rng.uniform(1.2, 4.0))
            c = float(rng.uniform(-0.4, 1.5))
            a = float(10.0 ** rng.uniform(-3, 1))
            B = Interval(a, a * float(10.0 ** rng.uniform(0.1, 1.5)))
            q = tilde_ap_quantity(Weight.power(alpha), p, c, B)
            assert q >= 1.0 - 1e-10
        c = 0.7
        w_density = Weight.power(2 * c + 1)
        q = tilde_ap_quantity(w_density, 2.5, c, Interval(0.3, 2.0))
        assert q == pytest.approx(1.0, rel=1e-12)


class TestApMuQuantity:
    def test_unit_weight_is_one(self):
        m = BesselMeasure(1.0)
        for B in (Interval(0, 1), Interval(2, 5)):
            assert ap_mu_quantity(Weight.one(), 2.0, m, B) == pytest.approx(1.0, rel=1e-13)

    def test_lower_boundary_diverges(self):
        m = BesselMeasure(1.0)
        w = Weight.power(-1 - 2 * m.lam)
        with pytest.raises(DivergenceError):
            ap_mu_quantity(w, 2.0, m, Interval(0, 0.25))

    def test_in_range_finite(self):
        m = BesselMeasure(1.0)
        fam = IntervalFamily.standard(8, seed=2)
        rep = weight_constant(Weight.power(2.0), ApMu(2.0, 1.0), fam)
        assert not rep.divergent and math.isfinite(rep.value)


class TestTildeA1Quantity:
    def test_density_weight_is_one(self):
        c = 0.8
        w = Weight.power(2 * c + 1)
        for B in (Interval(0.5, 2.0), Interval(1.0, 7.0)):
            assert tilde_a1_quantity(w, c, B) == pytest.approx(1.0, rel=1e-12)

    def test_unit_weight_lebesgue_case(self):
        # c = -1/2 makes nu = dx; w = 1 gives ratio 1 exactly
        assert tilde_a1_quantity(Weight.one(), -0.5, Interval(0.3, 4.0)) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_unit_weight_reference_value(self):
        # w=1, c=1/2, B=(1,2): (1/(7/3)) * sup x^2 = 12/7
        val = tilde_a1_quantity(Weight.one(), 0.5, Interval(1, 2))
        assert val == pytest.approx(12.0 / 7.0, rel=1e-10)

    def test_interior_minimum_of_density_ratio(self):
        # w / x^2 = (log x - 0.3137)^2 + 1e-8 has infimum 1e-8 at x = e^0.3137 in
        # (1, 2); its expanded atoms cancel to about 5e-10 relative there
        log = FuncExpr.log_power(1.0, 0.0, 1)
        w = Weight(FuncExpr.power(1.0, 2.0) * ((log - 0.3137) * (log - 0.3137) + 1e-8))
        B = Interval(1.0, 2.0)
        want = w.mass(B) / FuncExpr.constant(1.0).integrate(B, dnu(0.5)) * 1e8
        assert tilde_a1_quantity(w, 0.5, B) == pytest.approx(want, rel=1e-6, abs=0.0)


class TestWeightConstant:
    def test_tilde_a1_power_weight_constant(self):
        # t^alpha on (0, b): (w(B)/nu_c(B)) * b^{2c+1-alpha} = (2c+2)/(alpha+1),
        # the largest value over the family since 2c+1-alpha >= 0
        fam = IntervalFamily.standard(8, seed=2)
        for c in (0.5, 1.0):
            for alpha in (-0.5, 2 * c + 1):
                rep = weight_constant(Weight.power(alpha), TildeA1(c), fam)
                assert not rep.divergent
                assert rep.value == pytest.approx((2 * c + 2) / (alpha + 1), rel=1e-12)
            rep = weight_constant(Weight.power(-1.0), TildeA1(c), fam)
            assert rep.divergent and math.isinf(rep.value)

    def test_constant_weight_apmu(self):
        fam = IntervalFamily.standard(6, seed=3)
        rep = weight_constant(Weight.one(), ApMu(2.0, 1.0), fam)
        assert rep.value == pytest.approx(1.0, rel=1e-12)

    def test_monotone_family_growth(self):
        w = Weight.power(1.5)
        tag = TildeAp(2.0, 0.5)
        f1 = IntervalFamily.standard(6, seed=4)
        f2 = IntervalFamily.standard(12, seed=4)
        r1 = weight_constant(w, tag, f1)
        r2 = weight_constant(w, tag, f2)
        assert r2.value >= r1.value - 1e-15

    def test_out_of_range_flags_divergence(self):
        rep = weight_constant(
            Weight.power(5.5), TildeAp(2.0, 0.5), IntervalFamily.standard(6, seed=5)
        )
        assert rep.divergent
        assert math.isinf(rep.value)
        assert math.isfinite(rep.finite_value)


def _scalar_product(w, tag, B):
    """The per-interval product, one scalar integral at a time (the oracle)."""
    p = tag.p
    if isinstance(tag, ApMu):
        m = BesselMeasure(tag.lam)
        mass, kind, dual = m.mu(B), dmu(m), w.expr.powf(-1.0 / (p - 1.0))
    else:
        c = tag.class_lambda
        mass, kind = FuncExpr.constant(1.0).integrate(B, dnu(c)), DX
    first = w.expr.integrate(B, kind) / mass
    if isinstance(tag, TildeAp):
        pprime = p / (p - 1.0)
        dual = FuncExpr.power(1.0, (2.0 * c + 1.0) * pprime) * w.expr.powf(-1.0 / (p - 1.0))
    second = dual.integrate(B, kind) / mass
    return first * second ** (p - 1.0)


def _scalar_weight_constant(w, tag, family):
    """The interval-by-interval scan: strict > keeps the first maximum, and
    the first divergent interval is the witness."""
    best, best_B, witness = -math.inf, None, None
    for B in family.intervals:
        try:
            q = _scalar_product(w, tag, B)
        except DivergenceError:
            if witness is None:
                witness = B
            continue
        if q > best:
            best, best_B = q, B
    if witness is not None:
        return WeightConstantReport(math.inf, witness, True, best, best_B)
    return WeightConstantReport(best, best_B, False, best, best_B)


class TestFamilyScan:
    """weight_constant's one batched pass against the scalar scan."""

    @staticmethod
    def _family(seed, n=120):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            b = float(10.0 ** rng.uniform(-5.0, 3.0))
            a = 0.0 if rng.random() < 0.25 else b * float(rng.uniform(0.0, 1.0))
            out.append(Interval(a, b))
        return IntervalFamily(f"oracle(seed={seed})", tuple(out))

    @staticmethod
    def _cases():
        step = Weight(FuncExpr.piecewise_constant([0.0, 0.5, 2.0, 50.0], [2.0, 0.5, 3.0]), "step")
        for tag in (ApMu(2.0, 1.0), ApMu(1.5, 0.5), TildeAp(2.0, 0.5), TildeAp(3.0, 1.0)):
            r = power_weight_range(tag)
            for alpha in (
                0.5 * (r.lower + r.upper), r.lower + 0.1, r.upper - 0.1,  # inside
                r.lower, r.upper,                                        # boundary
                r.lower - 0.5, r.upper + 0.5,                            # outside
            ):
                yield Weight.power(alpha), tag
            yield step, tag

    def test_matches_scalar_scan(self):
        for seed in (1, 2, 3):
            fam = self._family(seed)
            for w, tag in self._cases():
                got = weight_constant(w, tag, fam)
                want = _scalar_weight_constant(w, tag, fam)
                for field in ("value", "argmax_interval", "divergent", "finite_value", "finite_argmax"):
                    assert getattr(got, field) == getattr(want, field), (w.description, tag, field)

    def test_products_bitwise(self):
        fam = self._family(4)
        n_flagged = 0
        for w, tag in self._cases():
            q, divergent = _products(w, tag, fam.ends)
            for i, B in enumerate(fam.intervals):
                try:
                    want = _scalar_product(w, tag, B)
                except DivergenceError:
                    assert divergent[i]
                    n_flagged += 1
                    continue
                assert not divergent[i]
                assert float(q[i]).hex() == want.hex(), (w.description, tag, B)
        assert n_flagged > 0

    def test_reference_mass_is_kept_on_the_family(self, monkeypatch):
        """A second scan of one family reads nu_c(B) or mu(B) from its batch;
        the divergent flags it hands out are copies, so the first scan's
        flags do not leak into the second."""
        one = FuncExpr.constant(1.0).pieces
        masses = []
        batched = FuncExpr.integrate_many

        def counted(f, ends, kind):
            if f.pieces == one:
                masses.append(kind)
            return batched(f, ends, kind)

        monkeypatch.setattr(FuncExpr, "integrate_many", counted)
        fam = self._family(5)
        tag = TildeAp(2.0, 0.5)
        first = weight_constant(Weight.power(-0.5), tag, fam)
        assert len(masses) == 1
        for w in (Weight.power(-0.5), Weight.power(0.25), Weight.power(5.0)):
            got = weight_constant(w, tag, fam)
            want = _scalar_weight_constant(w, tag, fam)
            for field in ("value", "divergent", "argmax_interval"):
                assert getattr(got, field) == getattr(want, field), (w.description, field)
        assert len(masses) == 1
        assert weight_constant(Weight.power(-0.5), tag, fam) == first
        weight_constant(Weight.power(0.5), ApMu(2.0, 1.0), fam)  # mu = x^2 dx = nu_0.5
        assert len(masses) == 1
        weight_constant(Weight.power(0.5), ApMu(2.0, 0.75), fam)
        assert [kind.exponent for kind in masses] == [2.0, 1.5]

    def test_standard_family_is_shared(self):
        f1 = IntervalFamily.standard(7, seed=3, n_random=11)
        assert IntervalFamily.standard(7, seed=3, n_random=11) is f1
        ends = f1.ends
        assert f1.ends is ends and not ends.a.flags.writeable
        assert list(zip(ends.a, ends.b)) == [(B.a, B.b) for B in f1.intervals]


class TestDuality:
    def test_sigma_star_unit_weight(self):
        pair = dual_weight(Weight.one(), 2.0, 1.0)
        assert isinstance(pair, DualPair)
        # sigma_* = t^4 for p = 2, lam = 1
        for x in (0.5, 1.0, 3.0):
            assert pair.sigma_star(x) == pytest.approx(x**4, rel=1e-13)
            assert pair.sigma(x) == pytest.approx(1.0, rel=1e-13)

    def test_sigma_star_power_exponent(self):
        p, lam, alpha = 2.5, 0.7, 1.3
        pp = p / (p - 1)
        pair = dual_weight(Weight.power(alpha), p, lam)
        expo = 2 * lam * pp - alpha * (pp - 1)
        for x in (0.2, 1.0, 5.0):
            assert pair.sigma_star(x) == pytest.approx(x**expo, rel=1e-12)

    def test_substitution_identity(self):
        # t^{2*lam*p} * sigma_*^{1-p} == w exactly
        p, lam, alpha = 3.0, 1.0, 0.8
        pair = dual_weight(Weight.power(alpha), p, lam)
        back = FuncExpr.power(1.0, 2 * lam * p) * pair.sigma_star.expr.powf(1 - p)
        for x in (0.3, 1.0, 4.0):
            assert back(x) == pytest.approx(x**alpha, rel=1e-12)

    def test_per_interval_duality_identity(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            lam = float(rng.uniform(0.2, 2.0))
            p = float(rng.uniform(1.2, 4.0))
            c = lam - 0.5
            lo = power_weight_range(TildeAp(p, c)).lower
            hi = power_weight_range(TildeAp(p, c)).upper
            alpha = float(rng.uniform(lo + 0.1, hi - 0.1))
            a = float(10.0 ** rng.uniform(-3, 1))
            B = Interval(a, a * float(10.0 ** rng.uniform(0.05, 1.5)))
            w = Weight.power(alpha, coef=float(rng.uniform(0.5, 2.0)))
            pair = dual_weight(w, p, lam)
            pprime = p / (p - 1)
            lhs = tilde_ap_quantity(pair.sigma_star, pprime, c, B)
            rhs = tilde_ap_quantity(w, p, c, B) ** (1.0 / (p - 1.0))
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestPowerRange:
    def test_reference_ranges(self):
        r = power_weight_range(ApMu(2.0, 1.0))
        assert (r.lower, r.upper) == (-3.0, 3.0)
        r = power_weight_range(TildeAp(2.0, 1.0))
        assert (r.lower, r.upper) == (-1.0, 7.0)

    def test_small_lambda_limit(self):
        r = power_weight_range(TildeAp(2.0, 1e-9))
        assert r.upper == pytest.approx(3.0, abs=1e-6)

    def test_limiting_class_includes_density_endpoint(self):
        r = power_weight_range(TildeA1(0.5))
        assert r.upper_inclusive
        assert r.contains(2 * 0.5 + 1)


class TestDichotomy:
    @pytest.mark.parametrize("alpha,member", [(0.0, True), (3.0, True), (5.0, False), (-1.0, False)])
    def test_tilde_class(self, alpha, member):
        res = power_dichotomy(alpha, TildeAp(2.0, 0.5), depth=8)
        assert res.member == member
        if member:
            assert res.ratio < 1.05
        else:
            assert res.divergent or res.ratio > 2.0

    def test_limiting_class_above_density_exponent(self):
        # t^alpha with alpha > 2c+1 is outside (-1, 2c+1]: w / x^{2c+1} -> 0 at 0
        for c in (0.5, 1.0):
            res = power_dichotomy(2 * c + 1.5, TildeA1(c), 6)
            assert res.divergent and not res.member

    def test_cross_membership_asymmetry(self):
        # p=2, lam=1: alpha=5 outside classical (-3,3), inside modified (-1,7);
        # alpha=-2 inside classical, outside modified
        res_c = power_dichotomy(5.0, ApMu(2.0, 1.0), depth=8)
        res_m = power_dichotomy(5.0, TildeAp(2.0, 1.0), depth=8)
        assert not res_c.member and res_m.member
        res_c = power_dichotomy(-2.0, ApMu(2.0, 1.0), depth=8)
        res_m = power_dichotomy(-2.0, TildeAp(2.0, 1.0), depth=8)
        assert res_c.member and not res_m.member


class TestPiecewiseConstantWeights:
    def test_duality_identity_for_step_weights(self):
        # the per-interval duality is exact for any representable weight, not
        # just powers; step weights exercise the piecewise powf path
        rng = np.random.default_rng(55)
        for _ in range(40):
            lam = float(rng.uniform(0.3, 1.5))
            p = float(rng.uniform(1.3, 3.0))
            c = lam - 0.5
            pts = np.sort(rng.uniform(0.2, 5.0, size=4))
            if np.min(np.diff(pts)) < 1e-2:
                continue
            vals = list(rng.uniform(0.2, 3.0, size=3))
            w = Weight(FuncExpr.piecewise_constant(list(pts), vals), "step")
            B = Interval(float(pts[0]), float(pts[-1]))
            pair = dual_weight(w, p, lam)
            lhs = tilde_ap_quantity(pair.sigma_star, p / (p - 1), c, B)
            rhs = tilde_ap_quantity(w, p, c, B) ** (1.0 / (p - 1.0))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_quantities_for_step_weights_match_brute_force(self):
        from besselweights.measure import integrate_callable, DX, dnu

        w = Weight(FuncExpr.piecewise_constant([0.5, 1.0, 2.0], [2.0, 0.5]), "step")
        B = Interval(0.5, 2.0)
        p, c = 2.0, 0.5
        val = tilde_ap_quantity(w, p, c, B)
        nu = integrate_callable(lambda x: 1.0, B, dnu(c))
        f1 = integrate_callable(lambda x: w(x), B, DX) / nu
        pprime = p / (p - 1)
        f2 = sum(
            integrate_callable(
                lambda x: x ** ((2 * c + 1) * pprime) * w(x) ** (-1 / (p - 1)), cell, DX
            )
            for cell in (Interval(0.5, 1.0), Interval(1.0, 2.0))  # w's cells
        ) / nu
        assert val == pytest.approx(f1 * f2 ** (p - 1), rel=1e-9)
