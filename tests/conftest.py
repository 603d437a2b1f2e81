"""Shared test helpers: `FuncExpr.sum` written out from its contract, the
midpoint rule that `FuncExpr._cells_on` replaced and must reproduce, the
per-pair root scan that the vectorised one in `FuncExpr._piece_roots`
replaced and must reproduce, the two-route Orlicz mean and the two family
nesting routines that `luxemburg_norm` and `dyadic._nesting` replaced, the
region walk that `FuncExpr.value_range` replaced with its monotone runs, a
comparable view of a function's cells, and a record of the cells the root
scan is asked about."""

import bisect
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from besselweights.dyadic import DyadicCube, SparseFamily, subtract_intervals, verify_sparse
from besselweights.measure import (
    _QUAD_ABS_FLOOR,
    _ROOT_SCAN,
    FuncExpr,
    Interval,
    Piece,
    _limit_at_zero,
    dmu,
    integrate_callable,
    monotone_inverse,
)


def _reference_atoms_at(f, x):
    i = bisect.bisect_right([p.lo for p in f.pieces], x) - 1
    if i >= 0 and f.pieces[i].lo <= x < f.pieces[i].hi:
        return f.pieces[i].atoms
    return ()


def _reference_mid(lo, hi):
    if lo > 0.0 and hi < math.inf:
        return math.sqrt(lo * hi)
    return max(2.0 * lo, 1.0) if hi == math.inf else hi / 2.0


def reference_sum(terms):
    """FuncExpr.sum by its contract: one grid of all the terms' piece ends,
    each cell's atoms looked up at its midpoint and added in term order."""
    grid = sorted({x for h in terms for p in h.pieces for x in (p.lo, p.hi)})
    pieces = []
    for lo, hi in zip(grid, grid[1:]):
        mid = _reference_mid(lo, hi)
        acc = {}
        for h in terms:
            for c, alpha, m in _reference_atoms_at(h, mid):
                if c != 0.0:
                    acc[(alpha, m)] = acc.get((alpha, m), 0.0) + c
        atoms = tuple((c, alpha, m) for (alpha, m), c in sorted(acc.items()) if c != 0.0)
        if atoms:
            pieces.append(Piece(lo, hi, atoms))
    return FuncExpr(pieces)


def reference_cells_on(f, grid):
    """FuncExpr._cells_on as it looked each grid cell up at its midpoint."""
    return [_reference_atoms_at(f, _reference_mid(lo, hi)) for lo, hi in zip(grid, grid[1:])]


def reference_piece_roots(p):
    """FuncExpr._piece_roots as it walked the scan one pair of points at a time."""
    if len(p.atoms) == 1 and p.atoms[0][2] == 0:
        return []
    lo, hi = p.lo, p.hi
    if hi == math.inf:
        s = max(lo, 1.0)
        flip = Piece(0.0, 1.0 / s, tuple((c * (-1) ** m, -a, m) for c, a, m in p.atoms))
        far = [1.0 / r for r in reversed(reference_piece_roots(flip))]
        if lo == s:
            return far
        return reference_piece_roots(Piece(lo, s, p.atoms)) + [s] * (p.eval(s) == 0.0) + far
    lo_eff = lo if lo > 0.0 else hi * 1e-15
    xs = np.geomspace(lo_eff, hi, _ROOT_SCAN)
    vals = FuncExpr._piece_eval_grid(p, xs)
    roots = []
    for x0, x1, v0, v1 in zip(xs, xs[1:], vals, vals[1:]):
        if v0 == 0.0:
            roots.append(float(x0))
        elif v0 * v1 < 0.0:
            roots.append(float(brentq(p.eval, x0, x1, rtol=1e-15)))
    out = []
    for r in roots:
        if lo < r < hi and (not out or r > out[-1] * (1 + 1e-13)):
            out.append(r)
    return out


def reference_mean_of_phi(g_abs, phi, B, m, s):
    """(1/mu(B)) int_B phi(|f|/s) dmu as it took one of two routes: an exact
    sum when all of |f| is piecewise constant, else one quadrature over all
    of B, with the piece ends inside B as break points."""
    muB = m.mu(B)
    if g_abs.is_piecewise_constant():
        total = 0.0
        for p in g_abs.pieces:
            lo, hi = max(p.lo, B.a), min(p.hi, B.b)
            if lo >= hi:
                continue
            phival = phi(abs(p.atoms[0][0]) / s)
            if math.isinf(phival):
                return math.inf
            total += phival * m.mu(Interval(lo, hi))
        return total / muB

    def g(x):
        return phi(abs(g_abs(x)) / s)

    ends = sorted({x for p in g_abs.pieces for x in (p.lo, p.hi) if B.a < x < B.b})
    try:
        if not ends:
            return integrate_callable(g, B, dmu(m), rel_tol=1e-11) / muB
        e = dmu(m).exponent
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(lambda x: g(x) * x**e, B.a, B.b, points=ends, limit=200,
                          epsabs=_QUAD_ABS_FLOOR, epsrel=1e-11)
    except OverflowError:
        return math.inf
    return val / muB


def reference_luxemburg_norm(f, phi, B, m):
    """The Luxemburg gauge over `reference_mean_of_phi`."""
    g_abs = f.restrict(B).abs()
    if g_abs.is_zero():
        return 0.0
    return monotone_inverse(
        lambda s: reference_mean_of_phi(g_abs, phi, B, m, s), 1.0, 0.0, math.inf,
        increasing=False,
    )


def reference_layer_decompose(cubes):
    """dyadic.layer_decompose as it climbed each cube's ancestors one level
    at a time."""
    cube_set = set(cubes)
    by_level = sorted(cube_set)
    min_level = by_level[0].level if by_level else 0
    layer_of = {}
    for Q in by_level:
        depth, anc = 0, Q
        while anc.level > min_level:
            anc = DyadicCube(anc.level - 1, anc.index // 2)
            if anc in cube_set:
                depth = max(depth, layer_of[anc] + 1)
        layer_of[Q] = depth
    if not by_level:
        return ()
    layers = [[] for _ in range(max(layer_of.values()) + 1)]
    for Q, v in layer_of.items():
        layers[v].append(Q)
    return tuple(tuple(sorted(layer)) for layer in layers)


def reference_canonical_major_subsets(cubes, m):
    """dyadic.canonical_major_subsets as it tested every next-layer cube
    against every cube."""
    layers = reference_layer_decompose(cubes)
    subsets = {}
    for v, layer in enumerate(layers):
        next_layer = layers[v + 1] if v + 1 < len(layers) else ()
        for Q in layer:
            holes = [P.interval for P in next_layer if Q.contains(P)]
            subsets[Q] = subtract_intervals(Q.interval, holes)
    eta, _ = verify_sparse(SparseFamily(tuple(cubes), subsets, 1.0), m)
    return SparseFamily(tuple(cubes), subsets, min(eta, 1.0))


def reference_value_range(f, B):
    """FuncExpr.value_range as it read each piece at every end of its
    derivative's sign regions, and a gap as the value 0."""
    vals = []
    for lo, hi, atoms in f.cells(B):
        if not atoms:
            vals.append(0.0)
            continue
        p = Piece(lo, hi, atoms)
        for iv, _ in FuncExpr([p]).derivative().sign_regions(Interval(lo, hi)):
            vals += [p.eval(iv.a) if iv.a > 0.0 else _limit_at_zero(p), p.eval(iv.b)]
    return min(vals), max(vals)


def cells_of(f):
    return [(p.lo, p.hi, p.atoms) for p in f.pieces]


@pytest.fixture(name="reference_sum")
def _reference_sum_fixture():
    return reference_sum


@pytest.fixture(name="reference_cells_on")
def _reference_cells_on_fixture():
    return reference_cells_on


@pytest.fixture(name="reference_piece_roots")
def _reference_piece_roots_fixture():
    return reference_piece_roots


@pytest.fixture(name="reference_value_range")
def _reference_value_range_fixture():
    return reference_value_range


@pytest.fixture(name="cells_of")
def _cells_of_fixture():
    return cells_of


@pytest.fixture(name="root_scans")
def _root_scans_fixture(monkeypatch):
    """The cells `FuncExpr._piece_roots` scans during the test, in a list."""
    calls, scan = [], FuncExpr._piece_roots
    count = staticmethod(lambda p: calls.append(p) or scan(p))
    monkeypatch.setattr(FuncExpr, "_piece_roots", count)
    return calls


@pytest.fixture(name="reference_luxemburg_norm")
def _reference_luxemburg_norm_fixture():
    return reference_luxemburg_norm


@pytest.fixture(name="reference_layer_decompose")
def _reference_layer_decompose_fixture():
    return reference_layer_decompose


@pytest.fixture(name="reference_canonical_major_subsets")
def _reference_canonical_major_subsets_fixture():
    return reference_canonical_major_subsets
