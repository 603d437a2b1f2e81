"""Tests for sparse operators, commutator forms, norms, and the layered mass bound."""

import numpy as np
import pytest

from besselweights.dyadic import (
    DyadicCube,
    canonical_major_subsets,
    random_subtree,
    zero_chain,
)
from besselweights.errors import PreconditionError
from besselweights.measure import BesselMeasure, FuncExpr, Interval, dmu
from besselweights.operators import (
    lp_norm,
    operator_norm_lower_bound,
    oscillation_factors,
    sparse_apply,
    sparse_commutator_apply,
    sparse_layer_mass_bound,
)
from besselweights.orlicz import llogl
from besselweights.weights import Weight

M1 = BesselMeasure(1.0)
M0 = BesselMeasure(1e-9)


def family_of(cubes, m):
    return canonical_major_subsets(cubes, m)


class TestSparseApply:
    def test_indicator_of_own_cube(self):
        Q = DyadicCube(0, 0)
        S = family_of([Q], M1)
        out = sparse_apply(S, FuncExpr.indicator(Q.interval), M1)
        assert out(0.5) == pytest.approx(1.0, rel=1e-13)
        assert out(1.5) == 0.0

    def test_constant_preserved(self):
        Q = DyadicCube(0, 0)
        S = family_of([Q], M1)
        out = sparse_apply(S, FuncExpr.constant(3.0), M1)
        assert out(0.25) == pytest.approx(3.0, rel=1e-13)

    def test_two_cube_stack(self):
        # S = {[0,1), [0,1/2)}, f = chi_[0,1/2), Lebesgue: 1/2 + 1 = 3/2 on [0,1/2)
        S = family_of(zero_chain([0, 1]), M0)
        out = sparse_apply(S, FuncExpr.indicator(Interval(0, 0.5)), M0)
        assert out(0.25) == pytest.approx(1.5, rel=1e-7)
        assert out(0.75) == pytest.approx(0.5, rel=1e-7)

    def test_positivity_monotonicity(self):
        rng = np.random.default_rng(2)
        S = family_of(zero_chain([0, 1, 2]) + [DyadicCube(2, 1)], M1)
        breaks = [0.0, 0.25, 0.5, 1.0]
        for _ in range(20):
            fv = rng.uniform(0, 2, size=3)
            gv = fv + rng.uniform(0, 1, size=3)
            f = FuncExpr.piecewise_constant(breaks, list(fv))
            g = FuncExpr.piecewise_constant(breaks, list(gv))
            Tf = sparse_apply(S, f, M1)
            Tg = sparse_apply(S, g, M1)
            for x in (0.1, 0.3, 0.6, 0.9):
                assert Tf(x) <= Tg(x) + 1e-12

    def test_self_adjoint_wrt_mu(self):
        rng = np.random.default_rng(3)
        S = family_of(zero_chain([0, 2]) + [DyadicCube(1, 1)], M1)
        breaks = [0.0, 0.3, 0.7, 1.0]
        B = Interval(1e-12, 2.0)
        for _ in range(25):
            f = FuncExpr.piecewise_constant(breaks, list(rng.uniform(0, 2, 3)))
            g = FuncExpr.piecewise_constant(breaks, list(rng.uniform(0, 2, 3)))
            lhs = (sparse_apply(S, f, M1) * g).integrate(B, dmu(M1))
            rhs = (f * sparse_apply(S, g, M1)).integrate(B, dmu(M1))
            assert lhs == pytest.approx(rhs, rel=1e-10)


def commutator(S, b, f, variant):
    """A_{S,b} f or A*_{S,b} f under M1, its factors built for this call alone."""
    return sparse_commutator_apply(oscillation_factors(S, b, M1), f, M1, variant)


def arrangement_apply(S, f, m):
    """A_S f built cell by cell on the cube-endpoint arrangement, as sparse_apply
    did before it became one FuncExpr.sum."""
    if not S.cubes:
        return FuncExpr.zero()
    avgs = [(Q, m.average(f, Q.interval)) for Q in S.cubes]
    pts = sorted({x for Q in S.cubes for x in (Q.interval.a, Q.interval.b)})
    vals = [
        sum(a for Q, a in avgs if Q.contains_point(0.5 * (lo + hi)))
        for lo, hi in zip(pts, pts[1:])
    ]
    return FuncExpr.piecewise_constant(pts, vals)


def per_cube_commutator_apply(S, b, f, m, variant, sum_terms):
    """A_{S,b} f from one term per cube, each built from scratch, added by
    `sum_terms`."""
    terms = []
    for Q in S.cubes:
        iv = Q.interval
        osc = (b - FuncExpr.constant(m.average(b, iv))).restrict(iv).abs()
        if variant == "left":
            coef = m.average(f, iv)
            term = osc * coef
        else:
            coef = (osc * f).integrate(iv, dmu(m)) / m.mu(iv)
            term = FuncExpr.indicator(iv, coef)
        if coef != 0.0:
            terms.append(term)
    return sum_terms(terms)


def _families():
    for depth in (10, 40, 80):
        yield f"chain{depth}", family_of(zero_chain(list(range(depth))), M1)
    for seed in range(3):
        yield f"subtree{seed}", family_of(
            random_subtree(DyadicCube(0, 0), 5, seed=seed, keep_prob=0.6), M1
        )


def _test_functions(depth):
    rng = np.random.default_rng(depth)
    breaks = [0.0] + sorted(10.0 ** rng.uniform(-6, 0, size=4)) + [1.0]
    return [
        FuncExpr.indicator(Interval(0.0, 1.0)),
        FuncExpr.power(1.0, -0.6).restrict(Interval(0.0, 1.0)),
        FuncExpr.indicator(Interval(0.0, 2.0 ** -(depth // 2))),
        FuncExpr.indicator(Interval(0.5, 1.0)),  # zero average on most cubes
        FuncExpr.piecewise_constant(breaks, list(rng.uniform(-1.0, 2.0, size=5))),
    ]


class TestOneSumOutputs:
    """sparse_apply and sparse_commutator_apply equal the per-cube
    constructions they replaced, piece for piece and bit for bit."""

    @pytest.mark.parametrize("S", [pytest.param(S, id=name) for name, S in _families()])
    def test_equal_to_per_cube_construction(self, S, reference_sum, cells_of):
        b = FuncExpr.log_of_mu_density(1.0)
        for f in _test_functions(len(S.cubes)):
            assert cells_of(sparse_apply(S, f, M1)) == cells_of(arrangement_apply(S, f, M1))
            for variant in ("left", "adjoint"):
                assert cells_of(commutator(S, b, f, variant)) == cells_of(
                    per_cube_commutator_apply(S, b, f, M1, variant, reference_sum)
                ), variant

    @pytest.mark.parametrize("variant", ["left", "adjoint"])
    def test_one_built_operator_serves_every_witness(self, variant, reference_sum, cells_of):
        S = family_of(zero_chain(list(range(40))), M1)
        b = FuncExpr.log_of_mu_density(1.0)
        factors = oscillation_factors(S, b, M1)
        before = [(iv, cells_of(osc)) for iv, osc in factors]
        witnesses = _test_functions(len(S.cubes))
        for f in witnesses + witnesses[::-1]:
            assert cells_of(sparse_commutator_apply(factors, f, M1, variant)) == cells_of(
                per_cube_commutator_apply(S, b, f, M1, variant, reference_sum)
            )
        assert [(iv, cells_of(osc)) for iv, osc in factors] == before
        constant = oscillation_factors(S, FuncExpr.constant(3.0), M1)
        assert all(sparse_commutator_apply(constant, f, M1, variant).is_zero() for f in witnesses)

    def test_single_cube_with_zero_average_is_zero(self):
        S = family_of([DyadicCube(1, 0)], M1)
        out = sparse_apply(S, FuncExpr.indicator(Interval(0.5, 1.0)), M1)
        assert out.is_zero()


class TestCommutator:
    def test_constant_symbol_vanishes(self):
        S = family_of(zero_chain([0, 1]), M1)
        b = FuncExpr.constant(5.0)
        f = FuncExpr.indicator(Interval(0, 1))
        for variant in ("left", "adjoint"):
            out = commutator(S, b, f, variant)
            for x in (0.1, 0.4, 0.8):
                assert abs(out(x)) < 1e-12

    def test_left_variant_explicit(self):
        Q = DyadicCube(0, 0)
        S = family_of([Q], M1)
        b = FuncExpr.log_of_mu_density(1.0)  # 2 log x
        f = FuncExpr.indicator(Q.interval)
        out = commutator(S, b, f, "left")
        bq = M1.average(b, Q.interval)
        for x in (0.15, 0.5, 0.9):
            assert out(x) == pytest.approx(abs(b(x) - bq), rel=1e-9)

    def test_adjoint_duality(self):
        rng = np.random.default_rng(7)
        S = family_of(zero_chain([0, 1, 3]), M1)
        b = FuncExpr.log_of_mu_density(1.0)
        breaks = [0.0, 0.2, 0.6, 1.0]
        B = Interval(1e-15, 1.0)
        for _ in range(10):
            f = FuncExpr.piecewise_constant(breaks, list(rng.uniform(0, 2, 3)))
            g = FuncExpr.piecewise_constant(breaks, list(rng.uniform(0, 2, 3)))
            lhs = (commutator(S, b, f, "left") * g).integrate(B, dmu(M1))
            rhs = (f * commutator(S, b, g, "adjoint")).integrate(B, dmu(M1))
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_shift_invariance_in_b(self):
        S = family_of(zero_chain([0, 2]), M1)
        b = FuncExpr.log_of_mu_density(1.0)
        f = FuncExpr.indicator(Interval(0.0, 0.5))
        out1 = commutator(S, b, f, "left")
        out2 = commutator(S, b + 3.7, f, "left")
        for x in (0.05, 0.3, 0.9):
            assert out1(x) == pytest.approx(out2(x), rel=1e-10, abs=1e-12)

    def test_positive_homogeneity_in_b(self):
        S = family_of(zero_chain([0, 2]), M1)
        b = FuncExpr.log_of_mu_density(1.0)
        f = FuncExpr.indicator(Interval(0.0, 0.5))
        base = commutator(S, b, f, "left")
        doubled = commutator(S, b * 2.0, f, "left")
        for x in (0.05, 0.3, 0.9):
            assert doubled(x) == pytest.approx(2.0 * base(x), rel=1e-10, abs=1e-12)


class TestNormEstimate:
    def test_identity_operator(self):
        w = Weight.one()
        witnesses = [FuncExpr.indicator(Interval(0, 1)), FuncExpr.power(1.0, 0.5).restrict(Interval(0, 1))]
        ((est,),) = operator_norm_lower_bound(
            witnesses, [witnesses], (2.0,), w, Interval(1e-12, 1.0)
        )
        assert est.value == pytest.approx(1.0, rel=1e-10)

    def test_single_cube_projection(self):
        Q = DyadicCube(0, 0)
        S = family_of([Q], M1)
        w = Weight.one()
        witnesses = [FuncExpr.indicator(Q.interval)]
        ((est,),) = operator_norm_lower_bound(
            witnesses,
            [[sparse_apply(S, f, M1) for f in witnesses]],
            (2.0,),
            w,
            Interval(1e-12, 1.0),
        )
        assert est.value == pytest.approx(1.0, rel=1e-10)

    def test_estimate_recomputable(self):
        Q = DyadicCube(0, 0)
        S = family_of([Q], M1)
        w = Weight.power(0.5)
        T = lambda f: sparse_apply(S, f, M1)
        witnesses = [FuncExpr.indicator(Interval(0.0, 0.5)), FuncExpr.indicator(Q.interval)]
        ((est,),) = operator_norm_lower_bound(
            witnesses, [[T(f) for f in witnesses]], (2.0,), w, Interval(0.0, 1.0)
        )
        f, D = est.test_function, Interval(0.0, 1.0)
        assert lp_norm(T(f), 2.0, w, D) / lp_norm(f, 2.0, w, D) == est.value

    def test_witness_norms_serve_every_operator(self, monkeypatch):
        import besselweights.operators as operators

        Q = DyadicCube(0, 0)
        S = family_of([Q], M1)
        w, D = Weight.power(0.5), Interval(0.0, 1.0)
        witnesses = [FuncExpr.indicator(Interval(0.0, 0.5)), FuncExpr.indicator(Q.interval)]
        images = [witnesses, [sparse_apply(S, f, M1) for f in witnesses]]
        norm, norms, calls = operators.lp_norm, operators._lp_norms, []
        monkeypatch.setattr(operators, "_lp_norms", lambda f, *a: calls.append(f) or norms(f, *a))
        ((identity, projection),) = operator_norm_lower_bound(witnesses, images, (2.0,), w, D)
        assert len(calls) == 2 + 2 * 2  # each witness once, then each image
        assert identity.value == pytest.approx(1.0, rel=1e-12)
        f = projection.test_function
        assert projection.value == norm(sparse_apply(S, f, M1), 2.0, w, D) / norm(f, 2.0, w, D)

    def test_all_ps_equal_the_calls_per_p(self):
        S = family_of(zero_chain(list(range(30))), M1)
        factors = oscillation_factors(S, FuncExpr.log_of_mu_density(1.0), M1)
        witnesses = _test_functions(len(S.cubes))
        ops = [lambda f: sparse_apply(S, f, M1)] + [
            lambda f, v=v: sparse_commutator_apply(factors, f, M1, v) for v in ("left", "adjoint")
        ]
        images = [[T(f) for f in witnesses] for T in ops]
        ps, D = (1.25, 1.5, 2.0), Interval(0.0, 2.0)  # |x^-0.6|^p w stays integrable at 0
        for w in (Weight.power(0.5), Weight.power(1.5)):
            together = operator_norm_lower_bound(witnesses, images, ps, w, D)
            assert len(together) == len(ps)
            for p, row in zip(ps, together):
                (alone,) = operator_norm_lower_bound(witnesses, images, (p,), w, D)
                assert [(e.value, e.test_function, e.p) for e in row] == [
                    (e.value, e.test_function, e.p) for e in alone
                ]

    def test_lp_norm_needs_a_domain(self):
        """A constant has no bounded support, which read as the zero function."""
        f, w = FuncExpr.constant(1.0), Weight.one()
        with pytest.raises(TypeError):
            lp_norm(f, 2.0, w)
        assert lp_norm(f, 2.0, w, Interval(0.0, 2.0)) == 2.0**0.5

    def test_zero_witnesses_raise(self):
        with pytest.raises(PreconditionError):
            operator_norm_lower_bound(
                [FuncExpr.zero()], [[FuncExpr.zero()]], (2.0,), Weight.one(), Interval(1e-12, 1.0)
            )

    def test_holder_split_of_major_subsets(self):
        # mu(E)^{p-1} <= w(E)^{(p-1)/p} sigma_*(E)^{(p-1)/p'} for random powers
        rng = np.random.default_rng(13)
        from besselweights.weights import dual_weight

        for _ in range(60):
            lam = float(rng.uniform(0.3, 1.5))
            m = BesselMeasure(lam)
            p = float(rng.uniform(1.3, 3.0))
            alpha = float(rng.uniform(-0.8, 1.8))
            w = Weight.power(alpha)
            pair = dual_weight(w, p, lam)
            a = float(10.0 ** rng.uniform(-2, 0.5))
            E = Interval(a, a * float(rng.uniform(1.2, 4.0)))
            muE = m.mu(E)
            wE = w.mass(E)
            sE = pair.sigma_star.mass(E)
            pprime = p / (p - 1)
            lhs = muE ** (p - 1)
            rhs = wE ** ((p - 1) / p) * sE ** ((p - 1) / pprime)
            assert lhs <= rhs * (1 + 1e-10)


class TestLayeredMassBound:
    def _banded_family(self, k, psi, m):
        # spaced zero-chain: mu-ratio per step 8^2 = 64 -> eta = 63/64 >= 31/32
        cubes = zero_chain([0, 2, 4, 6, 8])
        S = canonical_major_subsets(cubes, m)
        assert S.eta >= 1.0 - 1.0 / (2.0 * psi.gamma_doubling) - 1e-12
        # constant on [0,1) puts every cube in band k exactly
        c = 4.0**-k * psi.inverse(1.0)
        f = FuncExpr.indicator(Interval(0.0, 1.0), c)
        return S, f

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bound_holds_and_is_informative(self, k):
        psi = llogl(1.0)  # gamma = 16
        phi = llogl(1.0)
        S, f = self._banded_family(k, psi, M1)
        from besselweights.dyadic import level_sets

        bands, overflow = level_sets(S.cubes, f, psi, M1)
        assert not overflow and set(bands) == {k} and len(bands[k]) == len(S.cubes)
        w = Weight.power(2.0 * M1.lam)  # w = mu-density
        E = [Interval(0.0, 2.0**-8)]  # inside the deepest cube: lhs = 5 w(E)
        lhs, rhs, parts = sparse_layer_mass_bound(S, f, psi, phi, w, E, M1, k)
        assert lhs == pytest.approx(len(S.cubes) * w.mass(E[0]), rel=1e-12)
        assert lhs <= rhs * (1 + 1e-9)
        # informative: the bottom term does real work when 2^k < len(S)
        if 2.0**k < len(S.cubes):
            assert rhs - parts["bottom_term"] < lhs

    def test_bound_with_unit_weight(self):
        psi = phi = llogl(1.0)
        k = 2
        S, f = self._banded_family(k, psi, M1)
        w = Weight.one()
        E = [Interval(0.0, 2.0**-9), Interval(0.5, 0.75)]
        lhs, rhs, _ = sparse_layer_mass_bound(S, f, psi, phi, w, E, M1, k)
        assert lhs <= rhs * (1 + 1e-9)


class TestVmoTailMechanism:
    def test_adjoint_commutator_dominated_by_oscillation_level(self):
        # for a symbol with small oscillation at small scales, the adjoint
        # commutator form over a family of small cubes is pointwise dominated
        # by (calibrated c) * eps * A_S(A*_tree |f|), with eps the largest
        # cube oscillation of the symbol; calibrate on one instance and
        # assert on a second (deeper) instance
        import numpy as np

        b = FuncExpr.power(1.0, 0.5)  # sqrt: vanishing small-scale oscillation
        f = FuncExpr.indicator(Interval(0.25, 1.0))

        def cubes_in_support(min_level, max_level):  # every cube of these levels in (1/4, 1)
            levels = range(min_level, max_level + 1)
            return [DyadicCube(j, k) for j in levels for k in range(2**j // 4, 2**j)]

        def sides(min_level, max_level):
            S = canonical_major_subsets(cubes_in_support(min_level, min_level), M1)
            tree = cubes_in_support(min_level, max_level)
            S_tree = canonical_major_subsets(tree, M1)
            lhs = commutator(S, b, f, "adjoint")
            from besselweights.operators import sparse_apply

            inner = sparse_apply(S_tree, f, M1)  # A*_tree|f| = A_tree f for f >= 0
            rhs = sparse_apply(S, inner, M1)
            eps = max(
                M1.average(
                    (b - M1.average(b, Q.interval)).restrict(Q.interval).abs(), Q.interval
                )
                for Q in S_tree.cubes
            )
            xs = np.linspace(0.26, 0.99, 60)
            ratios = [
                lhs(float(x)) / (eps * rhs(float(x)))
                for x in xs
                if rhs(float(x)) > 0 and lhs(float(x)) > 0
            ]
            return max(ratios)

        c_cal = sides(4, 6) * 1.25
        assert sides(5, 7) <= c_cal


class TestBandedCubeMechanism:
    def test_major_subset_mass_lower_bound(self):
        # the mechanism behind the layered bound: on a norm-banded cube the
        # major subset already carries unit psi-mass after the 4^k rescale,
        # (2 gamma / mu(Q)) int_{E_Q} psi(4^k |f|) dmu >= 1
        from besselweights.measure import dmu
        from besselweights.orlicz import llogl

        psi = llogl(1.0)
        gamma = psi.gamma_doubling
        m = M1
        for k in (1, 2, 3):
            cubes = zero_chain([0, 2, 4, 6, 8])
            S = canonical_major_subsets(cubes, m)
            c = 4.0**-k * psi.inverse(1.0)
            f = FuncExpr.indicator(Interval(0.0, 1.0), c)
            for Q in S.cubes:
                mass = 0.0
                for iv in S.major_subsets[Q]:
                    val = psi(4.0**k * c)
                    mass += val * m.mu(iv)
                lhs = 2.0 * gamma * mass / m.mu(Q.interval)
                assert lhs >= 1.0 - 1e-9
