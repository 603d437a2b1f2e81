"""Tests for the measure layer: exact integrals, the function family, quadrature."""

import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselweights.errors import (
    DivergenceError,
    PreconditionError,
    QuadratureError,
    RepresentationError,
)
from besselweights.measure import (
    DX,
    BesselMeasure,
    FuncExpr,
    Interval,
    IntervalEnds,
    MeasureKind,
    Piece,
    dmu,
    integrate_callable,
    monotone_inverse,
    power_log_integral,
)
from besselweights.measure import (
    _brentq,
    _gauss_legendre,
    _limit_at_zero,
    _piece_ends,
    _power_log_integral_many,
    _scaled_gamma_tail,
)


def gauss_oracle(f, a, b, n=4000):
    """Composite Gauss-Legendre quadrature oracle, independent of the package paths."""
    xs, ws = np.polynomial.legendre.leggauss(64)
    edges = np.linspace(a, b, n // 64 + 2)
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        total += half * np.sum(ws * np.array([f(mid + half * x) for x in xs]))
    return total


class TestMuNu:
    def test_mu_lebesgue(self):
        with pytest.raises(ValueError):
            BesselMeasure(0.0)
        m = BesselMeasure(0.5)
        # lam = 0.5 on (1,2): antiderivative x^2/2
        assert m.mu(Interval(1, 2)) == pytest.approx(1.5, rel=1e-15)

    def test_mu_cubic(self):
        m = BesselMeasure(1.0)
        assert m.mu(Interval(0, 1)) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_lambda_positive_enforced(self):
        with pytest.raises(ValueError):
            BesselMeasure(0.0)

    @pytest.mark.parametrize(
        "clam,a,b,expected",
        [(0.5, 0.0, 1.0, 1.0 / 3.0), (0.0, 0.0, 2.0, 2.0), (1.0, 1.0, 2.0, 15.0 / 4.0)],
    )
    def test_nu_closed_forms(self, clam, a, b, expected):
        m = BesselMeasure(1.0)
        assert m.nu(clam, Interval(a, b)) == pytest.approx(expected, rel=1e-14)

    def test_nu_divergence_at_zero(self):
        m = BesselMeasure(1.0)
        with pytest.raises(DivergenceError):
            m.nu(-1.0, Interval(0, 1))  # integrand x^{-1}

    def test_doubling_certificate(self):
        rng = np.random.default_rng(7)
        for lam in (0.3, 0.5, 1.0, 2.0):
            m = BesselMeasure(lam)
            bound = 4.0 * 2.0 ** (2 * lam + 1)
            for _ in range(1000):
                c = float(rng.uniform(0.0, 10.0))
                r = float(10.0 ** rng.uniform(-6, 1))
                ratio = m.doubling_ratio(c, r)
                assert math.isfinite(ratio)
                assert ratio <= bound


class TestPowerLogIntegral:
    def test_log_integral(self):
        # int_1^e log x dx = 1
        assert power_log_integral(0.0, 1, 1.0, math.e) == pytest.approx(1.0, rel=1e-14)

    def test_beta_minus_one(self):
        # int_2^10 x^{-1} log x dx = (log^2 10 - log^2 2)/2
        expected = (math.log(10) ** 2 - math.log(2) ** 2) / 2
        assert power_log_integral(-1.0, 1, 2.0, 10.0) == pytest.approx(expected, rel=1e-14)

    def test_divergence_symbolic(self):
        with pytest.raises(DivergenceError):
            power_log_integral(-1.0, 0, 0.0, 1.0)
        with pytest.raises(DivergenceError):
            power_log_integral(-1.5, 0, 0.0, 1.0)

    def test_against_gauss_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            beta = float(rng.uniform(-2.5, 3.0))
            m = int(rng.integers(0, 3))
            a = float(10.0 ** rng.uniform(-2, 0.5))
            b = a * float(10.0 ** rng.uniform(0.05, 1.0))
            exact = power_log_integral(beta, m, a, b)
            oracle = gauss_oracle(lambda x: x**beta * math.log(x) ** m, a, b)
            assert exact == pytest.approx(oracle, rel=1e-11, abs=1e-13)


def _scalar_or_flag(beta, m, a, b):
    try:
        return power_log_integral(beta, m, a, b)
    except DivergenceError:
        return None


class TestPowerLogIntegralMany:
    """The array form equals the scalar one bit for bit on every branch."""

    # beta == -1 (log form), beta < -1 (divergent at 0), m == 0 with d <= 30
    # and d > 30 (beta = 40), and the m > 0 antiderivative
    BETAS = (-2.5, -1.5, -1.0, -0.5, 0.0, 0.7, 3.0, 40.0)

    @staticmethod
    def _ends(seed, n=400):
        rng = np.random.default_rng(seed)
        a = 10.0 ** rng.uniform(-6.0, 2.0, n)
        a[rng.random(n) < 0.2] = 0.0  # zero-based intervals
        b = np.where(a > 0.0, a, 1.0) * 10.0 ** rng.uniform(-4.0, 3.0, n)
        b = np.where(a > 0.0, a + b, b)
        return a, b

    def test_bitwise_against_scalar(self):
        a, b = self._ends(11)
        for beta in self.BETAS:
            for m in range(4):
                vals, divergent = _power_log_integral_many(beta, m, IntervalEnds(a, b))
                for i in range(len(a)):
                    want = _scalar_or_flag(beta, m, float(a[i]), float(b[i]))
                    assert divergent[i] == (want is None), (beta, m, a[i], b[i])
                    if want is not None:
                        assert float(vals[i]).hex() == want.hex(), (beta, m, a[i], b[i])

    def test_every_branch_is_reached(self):
        a, b = self._ends(11)
        _, divergent = _power_log_integral_many(-1.5, 0, IntervalEnds(a, b))
        assert divergent.any() and not divergent.all()
        d = 41.0 * np.log(b[a > 0.0] / a[a > 0.0])
        assert (d > 30.0).any() and (d <= 30.0).any()

    def test_overflow_raises_like_the_scalar(self):
        # exp in the d > 30 form, pow at a == 0, pow in the antiderivative
        for beta, m, a0 in ((800.0, 0, 1.0), (800.0, 0, 0.0), (800.0, 2, 0.5)):
            with pytest.raises(OverflowError):
                power_log_integral(beta, m, a0, 10.0)
            a = np.array([0.5, a0, 1.0])
            b = np.array([0.6, 10.0, 1.1])
            with pytest.raises(OverflowError):
                _power_log_integral_many(beta, m, IntervalEnds(a, b))

    def test_integrate_many_matches_integrate(self):
        f = (
            FuncExpr.power(2.0, -0.5)
            + FuncExpr.log_power(-1.5, 1.0, 2).restrict(Interval(0.3, 40.0))
            + FuncExpr.piecewise_constant([1e-3, 0.5, 7.0], [4.0, 0.25])
        )
        a, b = self._ends(5)
        for kind in (DX, dmu(BesselMeasure(0.7)), MeasureKind(-1.2)):
            vals, divergent = f.integrate_many(IntervalEnds(a, b), kind)
            for i in range(len(a)):
                B = Interval(float(a[i]), float(b[i]))
                try:
                    want = f.integrate(B, kind)
                except DivergenceError:
                    assert divergent[i] and math.isnan(vals[i])
                    continue
                assert not divergent[i]
                assert float(vals[i]).hex() == want.hex()


class TestFuncExpr:
    def test_constant_against_dmu_matches_mu(self):
        m = BesselMeasure(1.0)
        one = FuncExpr.constant(1.0)
        B = Interval(0, 1)
        assert one.integrate(B, dmu(m)) == pytest.approx(m.mu(B), rel=1e-15)

    def test_log_of_mu_density_dx(self):
        # f = log x^2 (lam=1): int_1^e 2 log x dx = 2
        f = FuncExpr.log_of_mu_density(1.0)
        assert f.integrate(Interval(1.0, math.e), DX) == pytest.approx(2.0, rel=1e-13)

    def test_mixed_atom_against_oracle(self):
        # x^{-3} log x against dmu (lam=1) on (2,10)
        m = BesselMeasure(1.0)
        f = FuncExpr.log_power(1.0, -3.0, 1)
        val = f.integrate(Interval(2, 10), dmu(m))
        oracle = gauss_oracle(lambda x: x**-3 * math.log(x) * x**2, 2.0, 10.0)
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_piecewise_constant_cells(self):
        f = FuncExpr.piecewise_constant([0.0, 0.5, 1.0], [2.0, 3.0])
        assert f(0.25) == 2.0
        assert f(0.75) == 3.0
        assert f(2.0) == 0.0
        assert f.integrate(Interval(0, 1), DX) == pytest.approx(2.5)

    def test_half_open_evaluation(self):
        f = FuncExpr.piecewise_constant([0.0, 0.5, 1.0], [2.0, 3.0])
        assert f(0.5) == 3.0
        assert f(1.0) == 0.0

    def test_arith_and_products(self):
        f = FuncExpr.power(2.0, 1.0)  # 2x
        g = FuncExpr.indicator(Interval(1, 3))  # chi_(1,3)
        h = f * g + FuncExpr.constant(1.0)
        assert h(2.0) == pytest.approx(5.0)
        assert h(0.5) == pytest.approx(1.0)
        assert h(4.0) == pytest.approx(1.0)

    def test_abs_splits_sign_change(self):
        # f = log x changes sign at 1
        f = FuncExpr.log_power(1.0, 0.0, 1).restrict(Interval(0.25, 4.0))
        a = f.abs()
        assert a(0.5) == pytest.approx(abs(math.log(0.5)), rel=1e-12)
        assert a(2.0) == pytest.approx(math.log(2.0), rel=1e-12)
        # integral of |log x| on (1/4, 4): closed form, splitting at the kink x=1
        val = a.integrate(Interval(0.25, 4.0), DX)
        anti = lambda x: x * math.log(x) - x
        oracle = -(anti(1.0) - anti(0.25)) + (anti(4.0) - anti(1.0))
        assert val == pytest.approx(oracle, rel=1e-13)

    def test_derivative_against_mpmath(self):
        # multi-atom cells, log-power atoms and a zero-based cell
        mp.mp.dps = 40
        f = FuncExpr([
            Piece(0.0, 0.5, ((2.0, 1.5, 2), (-0.7, 0.5, 0))),
            Piece(0.5, 3.0, ((1.0, 0.0, 3), (-1e-3, 0.0, 1), (0.4, -1.3, 1))),
            Piece(3.0, 7.0, ((2.5, 2.0, 0),)),
        ])
        d = f.derivative()
        for p in f.pieces:
            g = lambda x, atoms=p.atoms: sum(c * x**a * mp.log(x) ** m for c, a, m in atoms)
            for x in np.geomspace(max(p.lo, 1e-6), p.hi, 9)[:-1] * 1.0001:
                exact = mp.diff(g, mp.mpf(float(x)))
                assert d(float(x)) == pytest.approx(float(exact), rel=1e-13, abs=1e-300)
        assert FuncExpr.constant(3.0).derivative().is_zero()

    def test_powf_single_atom(self):
        w = FuncExpr.power(4.0, 2.0)
        s = w.powf(0.5)
        assert s(3.0) == pytest.approx(2.0 * 3.0, rel=1e-14)
        with pytest.raises(RepresentationError):
            (FuncExpr.power(1.0, 1.0) + FuncExpr.constant(1.0)).powf(0.5)

    def test_restrict_and_support(self):
        f = FuncExpr.constant(1.0).restrict(Interval(1, 2))
        sb = f.support_bounds()
        assert (sb.a, sb.b) == (1.0, 2.0)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(min_value=0.01, max_value=5.0),
        gap1=st.floats(min_value=0.01, max_value=3.0),
        gap2=st.floats(min_value=0.01, max_value=3.0),
        alpha=st.floats(min_value=-1.5, max_value=2.5),
    )
    def test_additivity_exact(self, a, gap1, gap2, alpha):
        f = FuncExpr.power(1.0, alpha)
        b, c = a + gap1, a + gap1 + gap2
        m = BesselMeasure(0.7)
        whole = f.integrate(Interval(a, c), dmu(m))
        parts = f.integrate(Interval(a, b), dmu(m)) + f.integrate(Interval(b, c), dmu(m))
        assert whole == pytest.approx(parts, rel=1e-11, abs=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        c0=st.floats(min_value=0.0, max_value=3.0),
        c1=st.floats(min_value=0.0, max_value=3.0),
        lam=st.floats(min_value=0.2, max_value=2.0),
    )
    def test_positivity(self, c0, c1, lam):
        f = FuncExpr.piecewise_constant([0.1, 1.0, 2.0], [c0, c1])
        m = BesselMeasure(lam)
        assert f.integrate(Interval(0.1, 2.0), dmu(m)) >= 0.0


class TestRootScan:
    """The vectorised sign-change scan of `_piece_roots` finds the same brackets,
    in the same order, as the per-pair loop it replaced: equal roots, bit for bit."""

    @staticmethod
    def _roots(p):
        return FuncExpr.zero()._piece_roots(p)

    def test_random_power_log_cells(self, reference_piece_roots):
        rng = np.random.default_rng(12)
        found = 0
        for _ in range(400):
            lo = 0.0 if rng.uniform() < 0.2 else float(10.0 ** rng.uniform(-6, 1))
            hi = float(max(lo, 1e-3) * 10.0 ** rng.uniform(0.1, 4))
            if rng.uniform() < 0.2:
                hi = math.inf
            # log powers up to 2: a triple root stalls brentq in both scans
            atoms = tuple(
                (float(rng.uniform(-3, 3)), float(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])),
                 int(rng.integers(0, 3)))
                for _ in range(int(rng.integers(1, 5)))
            )
            p = Piece(lo, hi, atoms)
            roots = self._roots(p)
            assert roots == reference_piece_roots(p), p
            found += len(roots)
        assert found > 100  # the cells do change sign

    def test_sum_exactly_zero_at_a_scan_point(self, reference_piece_roots):
        xs = np.geomspace(0.5, 4.0, 257)
        p = Piece(0.5, 4.0, ((1.0, 1.0, 0), (-float(xs[100]), 0.0, 0)))  # x - xs[100]
        assert FuncExpr._piece_eval_grid(p, xs)[100] == 0.0
        assert self._roots(p) == reference_piece_roots(p) == [float(xs[100])]

    def test_several_sign_changes(self, reference_piece_roots):
        cells = [
            Piece(0.1, 10.0, ((1.0, 0.0, 3), (-1.0, 0.0, 1))),  # u^3 - u: 1/e, 1, e
            Piece(0.5, 3.0, ((1.0, 2.0, 0), (-3.0, 1.0, 0), (2.0, 0.0, 0))),  # x = 1, 2
            Piece(0.0, 1.0, ((1.0, 0.0, 2), (-4.0, 0.0, 0))),  # log^2 x = 4: e^-2
            Piece(0.2, math.inf, ((1.0, 0.0, 2), (-1.0, 0.0, 0))),  # 1/e and e, across s = 1
            Piece(0.01, 100.0, ((1.0, 0.0, 3), (-2.0, 0.0, 2), (-1.0, 0.0, 1), (2.0, 0.0, 0))),
        ]
        counts = []
        for p in cells:
            roots = self._roots(p)
            assert roots == reference_piece_roots(p), p
            counts.append(len(roots))
        assert counts == [3, 2, 1, 2, 3]


class TestSignRead:
    def test_sign_read_below_the_square_root_of_the_smallest_float(self):
        # lo * hi underflows to 0, so a midpoint sqrt(lo * hi) took log(0)
        B = Interval(1e-250, 1e-150)
        f = FuncExpr([Piece(B.a, B.b, ((1.0, 0.0, 1), (460.5, 0.0, 0)))])  # log x + 460.5
        regions = f.sign_regions(B)
        assert [sgn for _, sgn in regions] == [-1, 1]
        assert regions[0][0].a == B.a and regions[0][0].b == regions[1][0].a
        assert regions[1][0].b == B.b
        parts = f.abs().pieces
        assert [(p.lo, p.hi) for p in parts] == [(iv.a, iv.b) for iv, _ in regions]
        assert parts[0].atoms == ((-1.0, 0.0, 1), (-460.5, 0.0, 0))
        assert parts[1].atoms == f.pieces[0].atoms


_ENDS = [0.0, 0.125, 0.3, 0.5, 1.0, 1.7, 2.0, 4.0]


def _random_term(rng, earlier):
    """A term for the sum tests: zero terms, negated earlier terms (exact
    cancellation), zero-based and unbounded pieces, log atoms, zero
    coefficients, atoms that cancel inside one piece, and sliver overlaps."""
    roll = rng.random()
    if roll < 0.1:
        return FuncExpr.zero()
    if roll < 0.25 and earlier:
        return -rng.choice(earlier)
    ends = sorted(rng.sample(_ENDS, rng.randint(2, 5)))
    if rng.random() < 0.3:
        ends.append(math.inf)
    pieces = []
    for lo, hi in zip(ends, ends[1:]):
        if rng.random() < 0.25:
            continue
        atoms = [
            (
                rng.choice([1.0, -1.0, 0.5, -0.5, 3.0, 0.0, rng.uniform(-2.0, 2.0)]),
                rng.choice([0.0, 0.5, -0.5, 2.0]),
                rng.choice([0, 0, 1, 2]),
            )
            for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.1:
            c, alpha, m = atoms[0]
            atoms = [(c, alpha, m), (-c, alpha, m)]
        pieces.append(Piece(lo, hi, tuple(atoms)))
    if len(pieces) >= 2 and pieces[0].hi == pieces[1].lo and rng.random() < 0.15:
        p = pieces[1]
        pieces[1] = Piece(p.lo * (1.0 - 4e-16), p.hi, p.atoms)  # a sliver overlap
    return FuncExpr(pieces)


class TestFuncExprSum:
    @pytest.mark.parametrize("block", range(4))
    def test_sum_equals_left_fold(self, block, reference_sum, cells_of):
        """The n-ary sum against `reference_sum`, and binary `+` against the
        two-term sum, with cancellations and sliver overlaps."""
        for seed in range(60 * block, 60 * block + 60):
            rng = random.Random(seed)
            terms = []
            for _ in range(rng.randint(0, 40)):
                terms.append(_random_term(rng, terms))
            assert cells_of(FuncExpr.sum(terms)) == cells_of(reference_sum(terms)), seed
            if len(terms) >= 2:
                assert cells_of(terms[0] + terms[1]) == cells_of(
                    reference_sum(terms[:2])
                ), seed

    def test_cancelled_cells_keep_the_union_grid(self, cells_of):
        # t1's cell cancels; t3 spans 0.5 and 1, which stay cell ends
        t1 = FuncExpr([Piece(0.5, 1.0, ((1.0, 0.0, 0), (-1.0, 0.0, 0)))])
        t2 = FuncExpr.indicator(Interval(2.0, 4.0))
        t3 = FuncExpr.indicator(Interval(0.0, 4.0))
        one, two = ((1.0, 0.0, 0),), ((2.0, 0.0, 0),)
        assert cells_of(FuncExpr.sum([t1, t2, t3])) == [
            (0.0, 0.5, one), (0.5, 1.0, one), (1.0, 2.0, one), (2.0, 4.0, two)
        ]

    def test_one_term_is_cleaned(self, cells_of):
        t = FuncExpr.power(2.0, 0.5)
        assert cells_of(FuncExpr.sum([t])) == cells_of(t)
        zero_cell = FuncExpr([Piece(0.0, 1.0, ((0.0, 0.0, 0),)), Piece(1.0, 2.0, ((1.0, 0.0, 0),))])
        assert cells_of(FuncExpr.sum([zero_cell])) == [(1.0, 2.0, ((1.0, 0.0, 0),))]
        assert FuncExpr.sum([]).is_zero()


class TestCellLookup:
    """`_cells_on` finds each piece's range of cells by two bisects, on a grid
    that holds every piece end inside its span."""

    ONE = ((1.0, 0.0, 0),)

    @pytest.mark.parametrize("block", range(2))
    def test_matches_the_midpoint_rule_on_the_callers_grids(self, block, reference_cells_on):
        """Cell for cell against the midpoint rule, on the grids `sum`,
        `__mul__` and `lp_integral` build, with sliver overlaps, gaps and
        unbounded pieces."""
        for seed in range(100 * block, 100 * block + 100):
            rng = random.Random(seed)
            terms = []
            for _ in range(rng.randint(1, 12)):
                terms.append(_random_term(rng, terms))
            grid = _piece_ends(terms)  # sum
            for t in terms:
                assert t._cells_on(grid) == reference_cells_on(t, grid), seed
            f, g = terms[0], terms[-1]
            grid = _piece_ends((f, g))  # __mul__
            assert f._cells_on(grid) == reference_cells_on(f, grid), seed
            assert g._cells_on(grid) == reference_cells_on(g, grid), seed
            a, b = sorted(rng.sample(_ENDS[:-1] + [0.7, 3.0], 2))
            B = Interval(a, b)
            fB = f.restrict(B)
            grid = _piece_ends((fB, g.restrict(B)))  # lp_integral, g the weight
            assert fB._cells_on(grid) == reference_cells_on(fB, grid), seed
            assert g._cells_on(grid) == reference_cells_on(g, grid), seed

    def test_a_piece_end_off_the_grid_raises(self):
        f = FuncExpr.indicator(Interval(0.0, 2.0))
        with pytest.raises(PreconditionError):
            f._cells_on([0.0, 1.0, 3.0])
        with pytest.raises(PreconditionError):
            f._cells_on([0.5, 1.0, 3.0])
        with pytest.raises(PreconditionError):
            FuncExpr.indicator(Interval(1.5, 4.0))._cells_on([1.0, 2.0, 3.0])

    def test_piece_ends_outside_the_span_need_no_grid_point(self):
        f = FuncExpr.indicator(Interval(0.0, 5.0)) + FuncExpr.indicator(Interval(6.0, 7.0))
        assert f._cells_on([1.0, 2.0, 3.0]) == [self.ONE, self.ONE]
        assert f._cells_on([5.0, 6.0, 7.0, 8.0]) == [(), self.ONE, ()]
        assert f._cells_on([8.0, 9.0]) == [()]
        assert f._cells_on([1.0]) == [] and f._cells_on([]) == []


def _sliver_pieces(rng):
    """Pieces on consecutive ends of _ENDS, each lo moved down by 0 to 9e-16
    relative, so neighbours overlap by slivers the constructor accepts."""
    ends = sorted(rng.sample(_ENDS[1:], rng.randint(2, 6)))
    return [
        Piece(lo * (1.0 - rng.randint(0, 9) * 1e-16), hi, ((rng.choice([1.0, -1.0, 2.5]), 0.0, 0),))
        for lo, hi in zip(ends, ends[1:])
    ]


class TestSliverRule:
    """The constructor clips an earlier piece at the later piece's lo, so
    evaluation, integrals, sign regions and cell walks read the same cells."""

    # f = 1 on [0.5, 1) and -1 on [s, 2): the two pieces share the sliver [s, 1)
    S = 1.0 - 4e-16
    F = FuncExpr([Piece(0.5, 1.0, ((1.0, 0.0, 0),)), Piece(1.0 - 4e-16, 2.0, ((-1.0, 0.0, 0),))])

    def test_pieces_never_overlap(self):
        for seed in range(200):
            rng = random.Random(seed)
            pieces = _sliver_pieces(rng)
            f = FuncExpr(pieces)
            assert all(p.hi <= q.lo for p, q in zip(f.pieces, f.pieces[1:])), seed
            for q in pieces:  # each piece owns its own lo, as `__call__` reads it
                assert f(q.lo) == q.atoms[0][0], seed
        assert [(p.lo, p.hi) for p in self.F.pieces] == [(0.5, self.S), (self.S, 2.0)]
        with pytest.raises(ValueError):
            FuncExpr([Piece(0.5, 1.0, ((1.0, 0.0, 0),)), Piece(0.9, 2.0, ((1.0, 0.0, 0),))])
        with pytest.raises(ValueError):
            FuncExpr([Piece(0.5, math.inf, ((1.0, 0.0, 0),)), Piece(2.0, 3.0, ((1.0, 0.0, 0),))])

    def test_sign_regions_tile_the_interval(self):
        cases = [(self.F, Interval(0.25, 3.0))]
        for seed in range(100):
            rng = random.Random(seed)
            cases.append((FuncExpr(_sliver_pieces(rng)), Interval(rng.choice([0.0, 0.2]), 5.0)))
        for f, B in cases:
            regions = [iv for iv, _ in f.sign_regions(B)]
            assert regions[0].a == B.a and regions[-1].b == B.b
            assert all(r.b == q.a for r, q in zip(regions, regions[1:]))
            assert [(lo, hi) for lo, hi, _ in f.cells(B)] == [(r.a, r.b) for r in regions]

    def test_every_method_gives_the_sliver_to_the_later_piece(self):
        f, s = self.F, self.S
        x = 1.0 - 2e-16  # inside the sliver [s, 1)
        assert s < x < 1.0 and f(x) == -1.0
        B = Interval(0.25, 3.0)
        assert f.sign_regions(B) == [
            (Interval(0.25, 0.5), 0), (Interval(0.5, s), 1), (Interval(s, 2.0), -1),
            (Interval(2.0, 3.0), 0),
        ]
        assert f.integrate(B, DX) == pytest.approx((s - 0.5) - (2.0 - s), rel=0, abs=1e-16)
        assert f.restrict(B).pieces == f.pieces


def _reference_envelope(intervals, values):
    """The per-cell loop both maximal profiles ran before they shared one routine."""
    pts = sorted({x for B in intervals for x in (B.a, B.b)})
    vals = []
    for lo, hi in zip(pts, pts[1:]):
        mid = 0.5 * (lo + hi)
        covering = [v for B, v in zip(intervals, values) if B.a <= mid < B.b]
        vals.append(max(covering) if covering else 0.0)
    return FuncExpr.piecewise_constant(pts, vals)


class TestEnvelope:
    def test_matches_the_per_cell_max(self, cells_of):
        rng = random.Random(5)
        for _ in range(100):
            intervals = []
            for _ in range(rng.randint(1, 12)):
                a, b = sorted(rng.sample(_ENDS, 2))
                intervals.append(Interval(a, b))
            values = [rng.choice([0.0, -1.0, 2.0, rng.uniform(-1.0, 3.0)]) for _ in intervals]
            assert cells_of(FuncExpr.envelope(intervals, values)) == cells_of(
                _reference_envelope(intervals, values)
            )

    def test_no_intervals_is_zero(self):
        assert FuncExpr.envelope([], []).is_zero()


class TestMonotoneInverse:
    def test_relative_precision_from_zero(self):
        # the lower end 0 is walked out in log x; no absolute floor swamps 1e-51
        x = monotone_inverse(math.log, math.log(1e-51), 0.0, 1.0)
        assert x == pytest.approx(1e-51, rel=1e-13, abs=0.0)

    def test_open_upper_end_decreasing(self):
        x = monotone_inverse(lambda x: 1.0 / x, 1e-3, 1.0, math.inf, increasing=False)
        assert x == pytest.approx(1e3, rel=1e-14)

    def test_clipped_to_the_ends(self):
        f = lambda x: x
        assert monotone_inverse(f, 0.5, 1.0, 2.0) == 1.0
        assert monotone_inverse(f, 5.0, 1.0, 2.0) == 2.0
        assert monotone_inverse(f, 1e-320, 0.0, 1.0) == 0.0
        assert monotone_inverse(f, 1e306, 1.0, math.inf) == math.inf


class TestQuadratureFallback:
    def test_matches_exact_path(self):
        m = BesselMeasure(1.0)
        f = FuncExpr.log_power(1.0, -3.0, 1)
        B = Interval(2, 10)
        exact = f.integrate(B, dmu(m))
        numeric = integrate_callable(lambda x: f(x), B, dmu(m))
        assert numeric == pytest.approx(exact, rel=1e-10)


class TestGaussLegendre:
    """`_gauss_legendre`: composite 16/32-node Gauss-Legendre for integrands
    analytic on the closed cell, with `_guarded_quad`'s failure terms."""

    def test_analytic_integrands_to_the_tolerance(self):
        m = BesselMeasure(1.0)
        for f, B in ((FuncExpr.log_power(1.0, -3.0, 1), Interval(2.0, 10.0)),
                     (FuncExpr.log_power(-2.5, 0.7, 2), Interval(0.01, 3.0))):
            exact = f.integrate(B, dmu(m))
            got = _gauss_legendre(lambda x: FuncExpr._piece_eval_grid(f.pieces[0], x) * x**2,
                                  B.a, B.b, 1e-12)
            assert got == pytest.approx(exact, rel=1e-13)
        # a pole at distance 1e-3 of the cell end takes halved panels
        got = _gauss_legendre(lambda x: 1.0 / (x + 1e-3), 0.0, 1.0, 1e-12)
        assert got == pytest.approx(math.log(1001.0), rel=1e-13)

    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-11])
    @pytest.mark.parametrize("mid", [0.5, 1.0 / 3.0, 0.123456])
    def test_interior_singularity_raises(self, mid, rel_tol):
        with pytest.raises(QuadratureError) as info:
            _gauss_legendre(lambda y: np.abs(y - mid) ** -0.5, 0.0, 1.0, rel_tol)
        assert info.value.achieved_error > rel_tol

    def test_non_finite_value_raises_divergence(self):
        with pytest.raises(DivergenceError):
            _gauss_legendre(lambda y: np.where(y < 0.5, 1.0, math.inf), 0.0, 1.0, 1e-9)


def lp_oracle(lo, hi, c0, c1, a, p, cw, b):
    """40-digit int_lo^hi |x^a (c1 log x + c0)|^p cw x^b dx, in u = log x.

    The integrand is |c1 (u - r)|^p e^{s u}, r = -c0/c1 and s = p a + b + 1,
    integrated on equal parts over which s u moves by at most 1, split at r
    and scaled to O(1), because mpmath's quad stops on an absolute error; a
    zero-based cell adds the part below u1 - 60/s on (-inf, u1 - 60/s]."""
    with mp.workdps(40):
        c0, c1, a, p, cw, b = map(mp.mpf, (c0, c1, a, p, cw, b))
        s, r, u1 = p * a + b + 1, -c0 / c1, mp.log(hi)
        u0 = mp.log(lo) if lo > 0.0 else u1 - 60 / s
        n = max(2, int(mp.ceil(abs(s) * (u1 - u0))) + 1)
        pts = sorted(set(mp.linspace(u0, u1, n)) | ({r} if u0 < r < u1 else set()))
        g = lambda u: abs(u - r) ** p * mp.exp(s * (u - u1))
        total = mp.quad(g, pts)
        if lo == 0.0:
            total += mp.quad(g, [-mp.inf] + ([r] if r < u0 else []) + [u0])
        return float(cw * abs(c1) ** p * mp.exp(s * u1) * total)


def log_cell(lo, hi, c0, c1, a=0.0):
    return FuncExpr([Piece(lo, hi, ((c0, a, 0), (c1, a, 1)))])


LP_POWERS = [1.0, 1.5, 2.0, 2.34, 3.0]


class TestLpIntegral:
    """`lp_integral` against a 40-digit oracle on each route.  In u = log x a
    cell end carries the rounding of log in double, eps |u|, so a cell width
    w in u conditions the integral to about (p + 1) eps |u| / w; the cells
    here are at least 0.69 wide in u, so that bound stays below 1e-14."""

    @pytest.mark.parametrize("p", LP_POWERS)
    def test_constant_cells(self, p):
        f = FuncExpr.piecewise_constant([0.0, 0.5, 2.0, 9.0], [3.0, -1.5, 0.25])
        w = FuncExpr.power(2.0, -0.9)
        with mp.workdps(40):
            e1 = mp.mpf(-0.9) + 1
            exact = sum(
                abs(mp.mpf(v)) ** p * 2 * (mp.mpf(hi) ** e1 - mp.mpf(lo) ** e1) / e1
                for lo, hi, v in [(0.0, 0.5, 3.0), (0.5, 2.0, -1.5), (2.0, 9.0, 0.25)]
            )
        assert f.lp_integral(p, w, Interval(0.0, 9.0)) == pytest.approx(float(exact), rel=1e-13)

    @pytest.mark.parametrize("p", LP_POWERS)
    @pytest.mark.parametrize(
        "root", [2.0, 1.3, 0.5, 2.0 * (1 + 1e-12), 0.5 / (1 + 1e-9), 3.1, 60.0, 1e-9]
    )
    @pytest.mark.parametrize("a, b", [(0.0, -0.95), (-0.25, 0.5)])
    def test_power_log_cells(self, p, root, a, b):
        """The root at a cell end, inside, just outside and far outside."""
        lo, hi, c1 = 0.5, 2.0, -1.75
        c0 = -c1 * math.log(root)
        got = log_cell(lo, hi, c0, c1, a).lp_integral(p, FuncExpr.power(1.5, b), Interval(lo, hi))
        assert got == pytest.approx(lp_oracle(lo, hi, c0, c1, a, p, 1.5, b), rel=1e-13)

    @pytest.mark.parametrize("p", LP_POWERS)
    @pytest.mark.parametrize("hi, root", [(1.0, 3.0), (1.0, 0.2), (1e-3, 1e-3), (1e-3, 1e-40),
                                          (1e-200, 1e-150), (1e-200, 1e-230), (1e-200, 1e-200)])
    def test_zero_based_cells(self, p, hi, root):
        """(0, hi): one incomplete gamma below the root, plus a finite cell
        when the root lies inside."""
        c1, b = 0.8, -0.95
        c0 = -c1 * math.log(root)
        got = log_cell(0.0, hi, c0, c1).lp_integral(p, FuncExpr.power(1.0, b), Interval(0.0, hi))
        assert got == pytest.approx(lp_oracle(0.0, hi, c0, c1, 0.0, p, 1.0, b), rel=1e-13)

    def test_far_root_on_a_zero_based_cell(self):
        """A nearly constant cell: e^z Gamma(p+1, z) past z = 50 from its series."""
        c0, c1, b = 2.0, 1e-9, -0.5
        w, B = FuncExpr.power(1.0, b), Interval(0.0, 1.0)
        got = log_cell(0.0, 1.0, c0, c1).lp_integral(1.5, w, B)
        assert got == pytest.approx(lp_oracle(0.0, 1.0, c0, c1, 0.0, 1.5, 1.0, b), rel=1e-13)

    def test_wide_cell_takes_many_segments(self):
        """|s| (u1 - u0) = 50: segments of |s| w <= 1 on both sides of the root."""
        lo, hi, c0, c1, b = 1e-10, 1e10, 0.3, 1.0, 0.1
        got = log_cell(lo, hi, c0, c1).lp_integral(1.5, FuncExpr.power(1.0, b), Interval(lo, hi))
        assert got == pytest.approx(lp_oracle(lo, hi, c0, c1, 0.0, 1.5, 1.0, b), rel=1e-13)

    def test_divergence_is_symbolic(self):
        with pytest.raises(DivergenceError):
            log_cell(0.0, 1.0, 1.0, 1.0).lp_integral(1.5, FuncExpr.power(1.0, -1.0), Interval(0, 1))

    def test_other_cells_keep_quadrature(self, monkeypatch):
        """A real power of a cell outside the power-log form still integrates,
        by quadrature on that cell alone, finite or zero-based."""
        from besselweights import measure

        calls = []
        quad_cell = measure._lp_quad
        monkeypatch.setattr(
            measure, "_lp_quad", lambda *a, **k: calls.append(1) or quad_cell(*a, **k)
        )
        f = FuncExpr(
            [Piece(1.0, 2.0, ((1.0, 0.0, 0), (1.0, 1.0, 0))), Piece(2.0, 3.0, ((2.0, 0.0, 0),))]
        )
        got = f.lp_integral(1.5, FuncExpr.constant(1.0), Interval(1.0, 3.0))
        exact = mp.quad(lambda x: (1 + x) ** 1.5, [1, 2]) + 2.0**1.5
        assert got == pytest.approx(float(exact), rel=1e-9)
        assert len(calls) == 1
        zero_based = FuncExpr([Piece(0.0, 1.0, ((1.0, 0.0, 0), (1.0, 1.0, 0)))])
        got = zero_based.lp_integral(1.5, FuncExpr.power(1.0, -0.5), Interval(0.0, 1.0))
        exact = mp.quad(lambda x: (1 + x) ** 1.5 / mp.sqrt(x), [0, 1])
        assert got == pytest.approx(float(exact), rel=1e-9)
        assert len(calls) == 2

    def test_quadrature_error_is_checked_on_zero_based_cells(self, monkeypatch):
        """The fallback raises when quad's error estimate misses its tolerance."""
        import scipy.integrate

        quad = scipy.integrate.quad  # `_guarded_quad` imports it at call time
        monkeypatch.setattr(scipy.integrate, "quad", lambda *a, **k: (quad(*a, **k)[0],) * 2)
        zero_based = FuncExpr([Piece(0.0, 1.0, ((1.0, 0.0, 0), (1.0, 1.0, 0)))])
        with pytest.raises(QuadratureError):
            zero_based.lp_integral(1.5, FuncExpr.power(1.0, -0.5), Interval(0.0, 1.0))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_commutator_output_needs_no_quadrature(self, p, monkeypatch, root_scans):
        """Nor a root scan: power-log cells are integrated whatever their sign."""
        from besselweights import measure
        from besselweights.dyadic import canonical_major_subsets, zero_chain
        from besselweights.operators import lp_norm, oscillation_factors, sparse_commutator_apply
        from besselweights.weights import Weight

        calls = []
        monkeypatch.setattr(measure, "_lp_quad", lambda *a, **k: calls.append(a))
        m = BesselMeasure(1.0)
        S = canonical_major_subsets(zero_chain(list(range(12))), m)
        factors = oscillation_factors(S, FuncExpr.log_of_mu_density(1.0), m)
        root_scans.clear()  # building the factors scans each |b - b_Q|
        f = FuncExpr.indicator(Interval(0.0, 1.0))
        for variant in ("left", "adjoint"):
            out = sparse_commutator_apply(factors, f, m, variant)
            for w in (Weight.power(-0.95), Weight.power(0.5)):
                assert lp_norm(out, p, w, Interval(0.0, 1.0)) > 0.0
        assert calls == [] and root_scans == []


class TestPowf:
    def test_integer_powers_multiply_out(self):
        f = FuncExpr([
            Piece(0.5, 4.0, ((1.0, 0.0, 0), (-2.0, 1.0, 0))),
            Piece(4.0, 5.0, ((3.0, 0.0, 0), (0.5, 0.0, 1))),
        ])
        for k in (0, 1, 2, 3):
            g = f.powf(k)
            assert all(len(p.atoms) >= 1 for p in g.pieces)
            for x in (0.7, 1.9, 3.3, 4.5):
                assert g(x) == pytest.approx(f(x) ** k, rel=1e-13)
        assert f.powf(2).pieces[0].atoms == ((1.0, 0.0, 0), (-4.0, 1.0, 0), (4.0, 2.0, 0))

    def test_real_or_negative_powers_of_sums_raise(self):
        f = FuncExpr([Piece(1.0, 2.0, ((1.0, 0.0, 0), (1.0, 1.0, 0)))])
        for s in (0.5, -1.0, -2.0, 2.5):
            with pytest.raises(RepresentationError):
                f.powf(s)
        with pytest.raises(RepresentationError):
            FuncExpr.log_power(1.0, 0.0, 1).powf(1.5)


class TestTripleRoot:
    def test_brentq_converges_on_a_triple_root(self):
        """log^3 x has a triple root at 1; brentq needs about 100 iterations."""
        f = FuncExpr.log_power(1.0, 1.0, 3).restrict(Interval(0.005, 32)).abs()
        (p1, p2) = f.pieces
        assert p1.hi == p2.lo == pytest.approx(1.0, abs=1e-11)
        assert f(0.5) == pytest.approx(-0.5 * math.log(0.5) ** 3, rel=1e-14) and f(2.0) > 0.0


class TestMonotoneRuns:
    """`FuncExpr.monotone_runs` on seeded power-log cells of one to three
    atoms: some with a double root of f' at x = 1 (x^a log^3 x) that the
    root scan cuts at, some zero-based, some next to a constant cell, some
    with B wider than the support."""

    @staticmethod
    def _cases(n, seed):
        rng = np.random.default_rng(seed)
        for i in range(n):
            k = int(rng.integers(1, 4))
            atoms = [(float(rng.uniform(-2.0, 2.0)), float(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])),
                      int(rng.integers(0, 4))) for _ in range(k)]
            if i % 4 == 1:  # f' = c x^{a-1} log^2 x (a log x + 3), plus a constant
                atoms = [(float(rng.uniform(0.5, 2.0)), float(rng.choice([0.0, 0.5, -1.0])), 3)]
                atoms += [(float(rng.uniform(-1.0, 1.0)), 0.0, 0)][: k - 1]
            lo = 0.0 if i % 4 == 2 else float(rng.uniform(0.05, 0.9))
            hi = float(rng.uniform(1.1, 8.0))
            if i % 4 == 1:  # the root scan's middle point, where f' reads 0, is 1
                hi = 1.0 / lo
            pieces = [Piece(lo, hi, tuple(atoms))]
            if i % 2:
                pieces.append(Piece(hi, hi + 1.0, ((float(rng.uniform(-2.0, 2.0)), 0.0, 0),)))
            top = pieces[-1].hi
            B = Interval(lo * 0.5, top + 0.5) if i % 4 == 3 else Interval(lo, top)
            yield FuncExpr(pieces), B

    @staticmethod
    def _end(p, x):
        return p.eval(x) if x > 0.0 else _limit_at_zero(p)

    def test_runs_tile_and_order_their_end_values(self):
        for f, B in self._cases(120, seed=21):
            runs = f.monotone_runs(B)
            assert runs[0][0] == B.a and runs[-1][1] == B.b
            assert all(lo < hi for lo, hi, _, _ in runs)
            assert all(r[1] == q[0] for r, q in zip(runs, runs[1:]))
            for lo, hi, p, d in runs:
                flat = all(a == 0.0 and m == 0 for _, a, m in p.atoms)  # also a gap
                assert (d == 0) == flat
                assert p.lo <= lo < hi <= p.hi
                if d:
                    assert d * self._end(p, lo) <= d * self._end(p, hi)
                else:
                    assert p.eval(lo or hi) == p.eval(hi)
            for r, q in zip(runs, runs[1:]):
                if r[2] is q[2]:  # one piece: its runs alternate
                    assert r[3] == -q[3] != 0

    def test_value_range_reads_the_run_ends(self, reference_value_range):
        for f, B in self._cases(120, seed=22):
            assert f.value_range(B) == reference_value_range(f, B)

    def test_a_double_root_of_the_slope_does_not_split_a_run(self):
        # on (1/39, 39) f' also reads 0 at the geometric midpoint 1
        f = FuncExpr.log_power(1.0, 0.0, 3)
        for B in (Interval(0.1, 10.0), Interval(1.0 / 39.0, 39.0)):
            assert [(lo, hi, d) for lo, hi, _, d in f.monotone_runs(B)] == [(B.a, B.b, 1)]


def _solve(solver, f, a, b, **tol):
    """The root's bits, or the class of the error raised."""
    try:
        return solver(f, a, b, **tol).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


class TestBrentq:
    """`_brentq` against scipy.optimize.brentq, bit for bit, at the
    tolerances of `_piece_roots` and of `monotone_inverse`."""

    TOLS = [dict(rtol=1e-15, maxiter=200), dict(xtol=1e-15)]

    @staticmethod
    def _brackets(n, seed):
        """Seeded brackets around a power-log, an exponential, a cubic and a
        flat-stretch root, in either order."""
        rng = random.Random(seed)
        for i in range(n):
            kind = i % 4
            if kind == 0:  # x^k (log x + c)
                k, c = rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0)
                f, r = (lambda x, k=k, c=c: x**k * (math.log(x) + c)), math.exp(-c)
                a, b = r * math.exp(-rng.uniform(0.01, 3.0)), r * math.exp(rng.uniform(0.01, 3.0))
            elif kind == 1:  # e^{k u} - y
                k, y = rng.uniform(0.1, 5.0), rng.uniform(0.1, 10.0)
                f, r = (lambda u, k=k, y=y: math.exp(k * u) - y), math.log(y) / k
                a, b = r - rng.uniform(0.01, 3.0), r + rng.uniform(0.01, 3.0)
            elif kind == 2:  # (x - r)^3 + q (x - r)
                r, q = rng.uniform(-2.0, 2.0), rng.uniform(0.0, 3.0)
                f = lambda x, r=r, q=q: (x - r) ** 3 + q * (x - r)
                a, b = r - rng.uniform(0.01, 3.0), r + rng.uniform(0.01, 3.0)
            else:  # a slope through r between flat stretches, scaled so far
                # down that the interpolation's product underflows to 0 / 0
                r, scale = rng.uniform(0.5, 2.0), 10.0 ** rng.uniform(-320.0, -250.0)
                f = lambda x, r=r, scale=scale: scale * min(max(x - r, -0.3), 0.3)
                a, b = r - rng.uniform(0.01, 3.0), r + rng.uniform(0.01, 3.0)
            yield (f, b, a) if rng.random() < 0.5 else (f, a, b)

    @pytest.mark.parametrize("tol", TOLS, ids=["rtol", "xtol"])
    def test_matches_scipy_bit_for_bit(self, tol):
        from scipy.optimize import brentq

        for f, a, b in self._brackets(400, seed=24):
            assert _solve(_brentq, f, a, b, **tol) == _solve(brentq, f, a, b, **tol), (a, b)

    @pytest.mark.parametrize("tol", TOLS, ids=["rtol", "xtol"])
    def test_edge_cases_match_scipy(self, tol):
        from scipy.optimize import brentq

        cube = lambda x: math.log(x) ** 3  # a triple root at 1
        cases = [
            (cube, 0.005, 32.0, tol),
            (cube, 0.005, 32.0, {**tol, "maxiter": 5}),  # RuntimeError
            (lambda x: x - 1.0, 1.0, 2.0, tol),  # a zero at an end
            (lambda x: x - 1.0, 0.0, 1.0, tol),
            (lambda x: x + 1.0, 0.0, 1.0, tol),  # ValueError: ends of one sign
            (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, tol),  # ValueError: NaN
        ]
        outcomes = [_solve(_brentq, f, a, b, **t) for f, a, b, t in cases]
        assert outcomes == [_solve(brentq, f, a, b, **t) for f, a, b, t in cases]
        assert outcomes[1:] == [RuntimeError, "0x1.0000000000000p+0", "0x1.0000000000000p+0", ValueError, ValueError]

    def test_triple_root_converges_within_the_root_scans_iterations(self):
        assert _brentq(lambda x: math.log(x) ** 3, 0.005, 32.0, rtol=1e-15, maxiter=200) == pytest.approx(1.0, abs=1e-11)


class TestScaledGammaTail:
    def test_against_mpmath(self):
        """e^z Gamma(a, z) on each of its three forms' ranges that a in
        [1.01, 8] reaches below z = 50, next to 0 and next to a + 1."""
        rng = np.random.default_rng(24)
        cases = []
        for a in rng.uniform(1.01, 8.0, 60):
            zs = [0.0, a + 1.0, math.nextafter(a + 1.0, 0.0)]
            zs += list(10.0 ** rng.uniform(-9.0, -3.0, 3))
            zs += list(a + 1.0 + rng.uniform(-0.05, 0.05, 4))
            zs += list(rng.uniform(0.0, 50.0, 6))
            cases += [(float(a), float(z)) for z in zs]
        with mp.workdps(30):
            for a, z in cases:
                exact = mp.exp(z) * mp.gammainc(a, z)
                assert _scaled_gamma_tail(a, z) == pytest.approx(float(exact), rel=1e-14, abs=0.0), (a, z)
