"""Shared test helpers: `FuncExpr.sum` written out from its contract, the
per-pair root scan that the vectorised one in `FuncExpr._piece_roots`
replaced and must reproduce, a comparable view of a function's cells, and a
record of the cells the root scan is asked about."""

import bisect
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from besselweights.measure import _ROOT_SCAN, FuncExpr, Piece


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


def cells_of(f):
    return [(p.lo, p.hi, p.atoms) for p in f.pieces]


@pytest.fixture(name="reference_sum")
def _reference_sum_fixture():
    return reference_sum


@pytest.fixture(name="reference_piece_roots")
def _reference_piece_roots_fixture():
    return reference_piece_roots


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
