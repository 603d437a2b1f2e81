"""Tests for the dyadic grid, sparse families, layers, and level sets."""

import re

import numpy as np
import pytest

from besselweights.dyadic import (
    DyadicCube,
    SparseFamily,
    canonical_major_subsets,
    layer_decompose,
    level_sets,
    random_subtree,
    subtract_intervals,
    verify_sparse,
    zero_chain,
)
from besselweights.errors import DisjointnessError
from besselweights.measure import BesselMeasure, FuncExpr, Interval
from besselweights.orlicz import llogl

M1 = BesselMeasure(1.0)
M0 = BesselMeasure(1e-9)  # effectively Lebesgue masses


class TestGrid:
    def test_levels_tile_disjointly(self):
        cubes = [DyadicCube(2, k) for k in range(16)]  # level 2 in (0, 4)
        edges = sorted([c.interval.a for c in cubes] + [cubes[-1].interval.b])
        assert np.allclose(np.diff(edges), 0.25)

    def test_nesting_dichotomy(self):
        rng = np.random.default_rng(1)
        # every cube of levels 0-5 in (0, 2)
        cubes = [DyadicCube(j, k) for j in range(6) for k in range(2 ** (j + 1))]
        for _ in range(500):
            a, b = rng.choice(len(cubes), 2)
            A, B = cubes[a], cubes[b]
            ia, ib = A.interval, B.interval
            inter = ia.intersect(ib)
            nested = A.contains(B) or B.contains(A)
            assert nested == (inter is not None and inter.length > 1e-15)

    def test_parent_child_measure_ratio_at_zero(self):
        # child [0, 2^{-j-1}) of [0, 2^{-j}) has mu-ratio exactly 2^{2lam+1}
        for j in (0, 3, 7):
            parent = DyadicCube(j, 0)
            child = parent.children()[0]
            ratio = M1.mu(parent.interval) / M1.mu(child.interval)
            assert ratio == pytest.approx(2.0 ** (2 * M1.lam + 1), rel=1e-12)

    def test_containment_constant_away_from_zero(self):
        bound = 2.0 ** (2 * M1.lam + 1)
        for j in (1, 3):
            for k in range(1, 20):
                parent = DyadicCube(j, k)
                for child in parent.children():
                    ratio = M1.mu(parent.interval) / M1.mu(child.interval)
                    assert 1.0 < ratio <= bound * (1 + 1e-12)


class TestLayers:
    def test_antichain_single_layer(self):
        cubes = [DyadicCube(3, k) for k in (0, 2, 5)]
        layers = layer_decompose(cubes)
        assert len(layers) == 1
        assert set(layers[0]) == set(cubes)

    def test_chain_one_per_layer(self):
        cubes = zero_chain([0, 1, 2])
        assert [len(layer) for layer in layer_decompose(cubes)] == [1, 1, 1]

    def test_two_disjoint_chains(self):
        # chains of lengths 2 and 3 -> layer sizes 2, 2, 1
        left = [DyadicCube(1, 0), DyadicCube(2, 0)]
        right = [DyadicCube(1, 1), DyadicCube(2, 2), DyadicCube(3, 4)]
        assert [len(layer) for layer in layer_decompose(left + right)] == [2, 2, 1]

    def test_unique_covering_ancestor_property(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            cubes = random_subtree(DyadicCube(0, 0), 6, seed=trial, keep_prob=0.5)
            if len(cubes) > 200:
                cubes = cubes[:200]
            layers = layer_decompose(cubes)
            for v in range(1, len(layers)):
                for Q in layers[v]:
                    prev = [P for P in layers[v - 1] if P.contains(Q)]
                    assert len(prev) == 1

    def test_layers_partition_family(self):
        cubes = random_subtree(DyadicCube(0, 0), 5, seed=3)
        layers = layer_decompose(cubes)
        assert sorted(Q for layer in layers for Q in layer) == sorted(set(cubes))


def _families(rng, n):
    """Seeded chains through a random point (levels skipped, some negative)
    and thinned random subtrees under one or two roots, some with repeats."""
    for trial in range(n):
        if trial % 2 == 0:
            x = float(rng.uniform(0.0, 3.0))
            levels = sorted(rng.choice(np.arange(-2, 30), size=int(rng.integers(1, 12)),
                                       replace=False))
            cubes = [DyadicCube(int(j), int(x * 2.0**j)) for j in levels]
        else:
            cubes = []
            for k in range(int(rng.integers(1, 3))):
                tree = random_subtree(DyadicCube(1, int(rng.integers(0, 4))), 5,
                                      seed=int(rng.integers(1 << 30)), keep_prob=0.75)
                cubes += [Q for Q in tree if rng.uniform() < 0.6]
        if cubes and rng.uniform() < 0.3:
            cubes.append(cubes[int(rng.integers(len(cubes)))])
        yield [cubes[i] for i in rng.permutation(len(cubes))]


class TestNestingWalk:
    """One stack walk gives the layers and the major subsets that the
    ancestor climb and the all-pairs hole test gave."""

    def test_layers_match_the_ancestor_climb(self, reference_layer_decompose):
        rng = np.random.default_rng(23)
        for cubes in _families(rng, 300):
            assert layer_decompose(cubes) == reference_layer_decompose(cubes)

    def test_major_subsets_match_the_all_pairs_test(self, reference_canonical_major_subsets):
        rng = np.random.default_rng(29)
        for m in (M0, M1):
            for cubes in _families(rng, 150):
                cubes = list(dict.fromkeys(cubes))  # a repeated cube overlaps itself
                S, ref = canonical_major_subsets(cubes, m), reference_canonical_major_subsets(cubes, m)
                assert S.major_subsets == ref.major_subsets
                assert S.eta == ref.eta
                assert S.to_lines() == ref.to_lines()

    def test_empty_family(self, reference_canonical_major_subsets):
        assert layer_decompose([]) == ()
        S, ref = canonical_major_subsets([], M1), reference_canonical_major_subsets([], M1)
        assert (S.cubes, S.major_subsets, S.eta) == (ref.cubes, ref.major_subsets, ref.eta)


class TestSparse:
    def test_single_cube_full_subset(self):
        Q = DyadicCube(0, 0)
        S = SparseFamily((Q,), {Q: (Q.interval,)}, 1.0)
        eta, witness = verify_sparse(S, M1)
        assert eta == pytest.approx(1.0)
        assert witness == Q

    def test_nested_chain_lebesgue(self):
        cubes = zero_chain([0, 1, 2])
        S = canonical_major_subsets(cubes, M0)
        eta, _ = verify_sparse(S, M0)
        assert eta == pytest.approx(0.5, rel=1e-8)
        assert S.eta == pytest.approx(eta, rel=1e-12)

    def test_nested_chain_bessel(self):
        cubes = zero_chain([0, 1, 2])
        S = canonical_major_subsets(cubes, M1)
        eta, _ = verify_sparse(S, M1)
        assert eta == pytest.approx(7.0 / 8.0, rel=1e-12)

    def test_full_binary_tree_eta_zero(self):
        cubes = [DyadicCube(0, 0)] + list(DyadicCube(0, 0).children())
        for c in DyadicCube(0, 0).children():
            cubes += list(c.children())
        S = canonical_major_subsets(cubes, M0)
        assert S.eta == pytest.approx(0.0, abs=1e-15)

    def test_half_tree_eta_half(self):
        cubes = zero_chain([0, 1, 2, 3])
        S = canonical_major_subsets(cubes, M0)
        assert S.eta == pytest.approx(0.5, rel=1e-8)

    def test_antichain_eta_one(self):
        cubes = [DyadicCube(2, k) for k in (0, 1, 3)]
        S = canonical_major_subsets(cubes, M1)
        assert S.eta == pytest.approx(1.0)
        assert all(S.major_subsets[Q] == (Q.interval,) for Q in S.cubes)

    def test_repeated_cube_is_named(self):
        Q = DyadicCube(1, 0)
        cubes = [DyadicCube(0, 0), Q, Q]
        with pytest.raises(ValueError, match=re.escape(f"cube {Q} is repeated")):
            canonical_major_subsets(cubes, M1)
        # the layers read a repeat as one cube
        assert layer_decompose(cubes) == layer_decompose(cubes[:2]) == ((cubes[0],), (Q,))

    def test_disjointness_violation_detected(self):
        q1, q2 = DyadicCube(1, 0), DyadicCube(1, 1)
        bad = SparseFamily(
            (q1, q2),
            {q1: (Interval(0.0, 0.6),), q2: (Interval(0.5, 1.0),)},
            0.5,
        )
        with pytest.raises(DisjointnessError):
            verify_sparse(bad, M1)

    @pytest.mark.parametrize("e1,e2", [((0.0, 0.25), (0.25, 0.5)), ((0.25, 0.6), (0.75, 1.0))])
    def test_subset_outside_its_cube_detected(self, e1, e2):
        q1, q2 = DyadicCube(1, 0), DyadicCube(2, 3)  # [0, 1/2) and [3/4, 1)
        bad = SparseFamily((q1, q2), {q1: (Interval(*e1),), q2: (Interval(*e2),)}, 0.5)
        with pytest.raises(ValueError, match="not inside"):
            verify_sparse(bad, M1)

    def test_roundtrip_serialization(self):
        cubes = zero_chain([0, 2, 4])
        S = canonical_major_subsets(cubes, M1)
        S2 = SparseFamily.from_lines(S.to_lines())
        assert S2.cubes == S.cubes
        assert S2.eta == pytest.approx(S.eta, rel=1e-10)
        for Q in S.cubes:
            assert len(S2.major_subsets[Q]) == len(S.major_subsets[Q])
            for a, b in zip(S2.major_subsets[Q], S.major_subsets[Q]):
                assert a.a == pytest.approx(b.a, abs=1e-15)
                assert a.b == pytest.approx(b.b, abs=1e-15)

    @pytest.mark.parametrize(
        "lines,line_no",
        [
            pytest.param(["3 0 1 2 0.0 0.1 0.12"], 1, id="odd-endpoint"),
            pytest.param(["0 0 1 2", "", "1 0 1 4"], 3, id="eta-disagrees"),
            pytest.param(["3 0 1 0"], 1, id="zero-denominator"),
            pytest.param(["0 0 1 2 0.5 1.0", "3"], 2, id="short-line"),
            pytest.param(["0 0 1 2 0.5 1.0", "1 0 1 2", "0 0 1 2"], 3, id="repeated-cube"),
        ],
    )
    def test_from_lines_rejects_malformed_line(self, lines, line_no):
        with pytest.raises(ValueError, match=f"line {line_no}:"):
            SparseFamily.from_lines(lines)

    def test_verify_reproduces_stored_eta(self):
        for seed in range(5):
            cubes = random_subtree(DyadicCube(0, 0), 4, seed=seed, keep_prob=0.6)
            S = canonical_major_subsets(cubes, M1)
            eta, _ = verify_sparse(S, M1)
            assert eta == pytest.approx(S.eta, rel=1e-12)


class TestSubtract:
    def test_middle_hole(self):
        parts = subtract_intervals(Interval(0, 1), [Interval(0.25, 0.5)])
        assert [(p.a, p.b) for p in parts] == [(0.0, 0.25), (0.5, 1.0)]

    def test_full_cover(self):
        assert subtract_intervals(Interval(0, 1), [Interval(0, 1)]) == ()


class TestLevelSets:
    def test_constant_function_single_band(self):
        psi = llogl()
        cubes = [DyadicCube(2, k) for k in range(4)]
        c = (4.0**-3) * psi.inverse(1.0)
        f = FuncExpr.constant(c)
        bands, overflow = level_sets(cubes, f, psi, M1)
        assert not overflow
        assert set(bands.keys()) == {3}
        assert len(bands[3]) == 4

    def test_zero_function_empty(self):
        bands, overflow = level_sets([DyadicCube(0, 0)], FuncExpr.zero(), llogl(), M1)
        assert not bands and not overflow

    def test_indicator_identity_bands(self):
        # psi = Id: norms are plain mu-averages
        from besselweights.orlicz import identity_young

        f = FuncExpr.indicator(Interval(0.0, 0.5))
        cubes = [DyadicCube(0, 0), DyadicCube(1, 0)]
        bands, overflow = level_sets(cubes, f, identity_young(), M0)
        # averages: 1/2 on [0,1) -> band 0; 1 on [0,1/2) -> band 0
        assert not overflow
        assert set(bands.keys()) == {0}
        assert len(bands[0]) == 2

    def test_partition_property(self):
        rng = np.random.default_rng(5)
        psi = llogl()
        cubes = [DyadicCube(3, k) for k in range(8)]
        vals = list(rng.uniform(0.001, 0.9, size=8))
        f = FuncExpr.piecewise_constant([k / 8 for k in range(9)], vals)
        bands, overflow = level_sets(cubes, f, psi, M1)
        seen = [Q for band in bands.values() for Q in band] + overflow
        assert len(seen) == len(set(seen))
        from besselweights.orlicz import luxemburg_norm

        for k, qs in bands.items():
            for Q in qs:
                n = luxemburg_norm(f, psi, Q.interval, M1)
                assert 4.0 ** (-k - 1) < n * (1 + 1e-9)
                assert n <= 4.0**-k * (1 + 1e-9)
