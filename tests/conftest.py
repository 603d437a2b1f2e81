"""Shared test helpers: `FuncExpr.sum` written out from its contract, the
midpoint rule that `FuncExpr._cells_on` replaced and must reproduce, the
per-pair root scan that the vectorised one in `FuncExpr._piece_roots`
replaced and must reproduce, the cell-by-cell L^p walk that
`FuncExpr.lp_integrals` replaced with one walk for all p, the two-route
Orlicz mean and the two family nesting routines that `luxemburg_norm` and
`dyadic._nesting` replaced, the region walk that `FuncExpr.value_range`
replaced with its monotone runs, a comparable view of a function's cells,
and a record of the cells the root scan is asked about."""

import bisect
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from besselweights.dyadic import DyadicCube, SparseFamily, subtract_intervals, verify_sparse
from besselweights.errors import DivergenceError, RepresentationError
from besselweights.measure import (
    _LP_TAIL,
    _QUAD_ABS_FLOOR,
    _ROOT_SCAN,
    FuncExpr,
    Interval,
    Piece,
    _atom_power,
    _atom_product,
    _legendre,
    _limit_at_zero,
    _lp_quad,
    _piece_ends,
    _root_series,
    _scaled_gamma_tail,
    dmu,
    integrate_callable,
    monotone_inverse,
    power_log_integral,
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


def reference_lp_integral(f, p_exp, weight, B):
    """FuncExpr.lp_integral as it walked the cells once per p and summed
    each cell's Gauss-Legendre segments on their own."""
    f = f.restrict(B)
    grid = _piece_ends((f, weight.restrict(B)))
    total = 0.0
    for lo, hi, fa, wa in zip(grid, grid[1:], f._cells_on(grid), weight._cells_on(grid)):
        if fa and wa:
            total += _reference_cell_lp(fa, wa, p_exp, lo, hi)
    return total


def _reference_cell_lp(fa, wa, p_exp, lo, hi):
    a = fa[0][1]
    power_log = all(al == a and m <= 1 for _, al, m in fa) and fa[-1][2] == 1
    if p_exp > 0.0 and power_log and all(m == 0 for *_, m in wa):
        c0, c1 = (fa[0][0], fa[1][0]) if len(fa) == 2 else (0.0, fa[0][0])
        u0 = math.log(lo) if lo > 0.0 else -math.inf
        return sum(
            cw * _reference_power_log_lp(c0, c1, p_exp, p_exp * a + b + 1.0, u0, math.log(hi))
            for cw, b, _ in wa
        )
    total = 0.0
    for lo, hi, sgn in FuncExpr._split(Piece(lo, hi, fa)):
        part = fa if sgn >= 0 else tuple((-c, al, m) for c, al, m in fa)
        try:
            powered = _atom_power(part, p_exp)
        except RepresentationError:
            total += _lp_quad(part, wa, p_exp, lo, hi)
        else:
            atoms = _atom_product(powered, wa)
            total += sum(c * power_log_integral(al, m, lo, hi) for c, al, m in atoms)
    return total


def _reference_power_log_lp(c0, c1, p, s, u0, u1):
    r = -c0 / c1
    c1p = abs(c1) ** p
    if u0 == -math.inf:
        if s <= 0.0:
            raise DivergenceError("p-mass integral diverges at 0")
        if r >= u1:
            tail = _scaled_gamma_tail(p + 1.0, s * (r - u1))
            return c1p * math.exp(s * u1) * tail / s ** (p + 1.0)
        head = c1p * math.exp(s * r) * math.gamma(p + 1.0) / s ** (p + 1.0)
        return head + _reference_power_log_lp(c0, c1, p, s, max(r, u1 - _LP_TAIL / s), u1)
    h = 1.0 / abs(s) if s else math.inf
    width = u1 - u0
    if not u0 - width < r < u1 + width:
        n = math.ceil(width / h) if h < width else 1
        ua = u0 + width / n * np.arange(n)
        return _reference_legendre_sum(c0, c1, p, s, ua, np.append(ua[1:], u1))
    if r <= u0:
        sides = [(u0 - r, u1 - r, 1.0)]
    elif r >= u1:
        sides = [(r - u1, r - u0, -1.0)]
    else:
        sides = [(0.0, u1 - r, 1.0), (0.0, r - u0, -1.0)]

    def root_segment(t, sign):
        return t ** (p + 1.0) * _root_series(p, sign * s * t)

    total, lo_u, hi_u = 0.0, [], []
    for t0, t1, sign in sides:
        if t0 < h:
            b = min(t1, h)
            if t0 == 0.0 or 2.0 * t0 <= b:
                total += c1p * math.exp(s * r) * (
                    root_segment(b, sign) - (root_segment(t0, sign) if t0 else 0.0)
                )
            else:
                lo_u.append(r + sign * t0)
                hi_u.append(r + sign * b)
            t0 = b
        if t0 < t1:
            k = np.arange(math.floor(t0 / h) + 1, math.ceil(t1 / h))
            ts = np.concatenate(([t0], k[(k * h > t0) & (k * h < t1)] * h, [t1]))
            lo_u += list(r + sign * ts[:-1])
            hi_u += list(r + sign * ts[1:])
    if lo_u:
        total += _reference_legendre_sum(c0, c1, p, s, np.array(lo_u), np.array(hi_u))
    return total


def _reference_legendre_sum(c0, c1, p, s, ua, ub):
    y, w = _legendre(p)
    mid, half = (ua + ub) / 2.0, np.abs(ub - ua) / 2.0
    u = mid[:, None] + half[:, None] * y
    return float(half @ (np.abs(c1 * u + c0) ** p * np.exp(s * u) @ w))


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


@pytest.fixture(name="reference_lp_integral")
def _reference_lp_integral_fixture():
    return reference_lp_integral


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
