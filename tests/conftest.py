"""Shared test helpers: the binary `+` that `FuncExpr.sum` replaced and must
reproduce, and a comparable view of a function's cells."""

import bisect
import math

import pytest

from besselweights.measure import FuncExpr, Piece


def _reference_atoms_at(f, x):
    i = bisect.bisect_right([p.lo for p in f.pieces], x) - 1
    if i >= 0 and f.pieces[i].lo <= x < f.pieces[i].hi:
        return f.pieces[i].atoms
    return ()


def _reference_mid(lo, hi):
    if lo > 0.0 and hi < math.inf:
        return math.sqrt(lo * hi)
    return max(2.0 * lo, 1.0) if hi == math.inf else hi / 2.0


def reference_add(f, g):
    """The binary `+` that FuncExpr.sum replaced: one grid of both functions'
    piece ends, each cell's atoms looked up at its midpoint and merged."""
    grid = sorted({x for h in (f, g) for p in h.pieces for x in (p.lo, p.hi)})
    pieces = []
    for lo, hi in zip(grid, grid[1:]):
        mid = _reference_mid(lo, hi)
        acc = {}
        for c, alpha, m in _reference_atoms_at(f, mid) + _reference_atoms_at(g, mid):
            if c != 0.0:
                acc[(alpha, m)] = acc.get((alpha, m), 0.0) + c
        atoms = tuple((c, alpha, m) for (alpha, m), c in sorted(acc.items()) if c != 0.0)
        if atoms:
            pieces.append(Piece(lo, hi, atoms))
    return FuncExpr(pieces)


def cells_of(f):
    return [(p.lo, p.hi, p.atoms) for p in f.pieces]


@pytest.fixture(name="reference_add")
def _reference_add_fixture():
    return reference_add


@pytest.fixture(name="cells_of")
def _cells_of_fixture():
    return cells_of
