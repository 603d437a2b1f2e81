"""Measures on the half-line and an exactly integrable function family.

The package works on (R_+, |.|, dmu) with dmu = x^{2*lam} dx, lam > 0.  Three
reference measures appear throughout:

    dx                    Lebesgue measure,
    dmu   = x^{2*lam} dx  the Bessel measure,
    dnu_c = x^{2*c+1} dx  the auxiliary family indexed by a class parameter c.

All of them are of the form x^e dx, so a single primitive covers everything:
the closed-form antiderivative of x^beta * log(x)^m.

Functions are represented by :class:`FuncExpr`: a finite list of disjoint
cells (lo, hi), each carrying a sum of atoms c * x^alpha * log(x)^m, and zero
off the cells.  The family is closed under +, -, products, restriction,
d/dx, absolute value (by splitting cells at sign changes), real powers of
single power atoms and integer powers of any cell, and every member
integrates in closed form against any x^e dx.  That is enough to express
every function manipulated here (powers, log x^{2*lam}, indicators,
sparse-operator outputs) without quadrature error.

Cells are half-open [lo, hi) and never overlap.  The constructor settles a
sliver overlap (up to 1e-15 relative) by clipping the earlier piece at the
later piece's lo, as evaluation reads it, and drops a piece the clip leaves
empty; every method then reads the same cells.  `FuncExpr.cells(B)` walks
them on an interval, clipped to it, with the gaps between them.

`FuncExpr.sum` adds many functions in one pass over the union grid of their
piece ends (binary `+` is its two-term case): each cell adds its terms' atoms
in term order and is dropped when they cancel.  One or two terms, as in
every binary `+`, add each piece into each cell it covers; more terms go
through a left-to-right sweep that keeps the running sums of the active
terms on a stack and re-adds only the terms from the lowest one that changed
(`_sweep_sum`), linear in the depth of a nested chain given ancestor first.
Both routes give the same bits.  `FuncExpr.envelope` is the max over
covering intervals.  `FuncExpr.sign_regions` (whose per-cell split
`abs` shares) is the one routine that answers sign questions; on the
derivative it cuts f into monotone runs (`FuncExpr.monotone_runs`), whose
ends hold the extremes of `value_range` and which bmo cuts at a level.  The
split also takes an unbounded cell [lo, inf), reading its tail via x -> 1/x.

Integrals over many intervals at once run on an `IntervalEnds` batch
(`FuncExpr.integrate_many`), in one array pass per atom that equals the
interval-by-interval integrals bit for bit.

`FuncExpr.lp_integrals` is the one path for |f|^p w, for several p in one walk
over the cells of f (`lp_integral` is its one-p case): a constant or power
cell against one power of x is one closed form; a cell x^a (c1 log x + c0)
against powers of x takes `_power_log_lp` whatever its sign (an incomplete
gamma, or its series next to the root and Gauss-Legendre away from it, with
a-priori error bounds), and the Gauss-Legendre segments of one p over the
whole walk are summed in one array pass (`_legendre_sum`); any other cell is
cut at its sign changes, once for all p.  What leaves the family takes
composite Gauss-Legendre (`_gauss_legendre`) when it is analytic on the
closed cell, and guarded adaptive quadrature (`integrate_callable`,
`_lp_quad`) otherwise.

Every root and inverse takes one bracketed solver, `_brentq`, which computes
scipy.optimize.brentq's iterates bit for bit: `_piece_roots` on each bracket
its scan finds, and `monotone_inverse`.  `_bounded_minimum` is the bounded
scalar minimiser of the same book, bit for bit scipy's as well.  With them and
the incomplete gamma of `_scaled_gamma_tail` summed here, the family's paths
load no scipy; guarded adaptive quadrature imports it on its first call.
"""

from __future__ import annotations

import bisect
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DivergenceError, PreconditionError, QuadratureError, RepresentationError

__all__ = [
    "Interval",
    "BesselMeasure",
    "MeasureKind",
    "DX",
    "dmu",
    "dnu",
    "FuncExpr",
    "IntervalEnds",
    "integrate_callable",
    "monotone_inverse",
    "power_log_integral",
]


@dataclass(frozen=True, slots=True)
class Interval:
    """An interval (a, b) in R_+ with 0 <= a < b < inf."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b < math.inf):
            raise ValueError(f"invalid interval ({self.a}, {self.b})")

    @classmethod
    def clipped(cls, lo: float, hi: float) -> "Interval":
        """Clip geometry that crosses 0 to (0, hi); the half-line owns the space."""
        return cls(max(lo, 0.0), hi)

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    def intersect(self, other: "Interval") -> "Interval | None":
        lo, hi = max(self.a, other.a), min(self.b, other.b)
        return Interval(lo, hi) if lo < hi else None


# ---------------------------------------------------------------------------
# Measure kinds: every reference measure is x^exponent dx.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureKind:
    """A measure of the form x^exponent dx."""

    exponent: float


DX = MeasureKind(0.0)


def dmu(m: "BesselMeasure") -> MeasureKind:
    return MeasureKind(2.0 * m.lam)


def dnu(class_lambda: float) -> MeasureKind:
    return MeasureKind(2.0 * class_lambda + 1.0)


# ---------------------------------------------------------------------------
# Exact antiderivatives of x^beta log(x)^m.
# ---------------------------------------------------------------------------


def _power_diff(e1: float, a: float, b: float) -> float:
    """b^e1 - a^e1 for 0 <= a < b, stable when e1*log(b/a) is small."""
    if a == 0.0:
        if e1 <= 0.0:
            raise DivergenceError(f"integral of x^{e1 - 1.0} diverges at 0")
        return b**e1
    la = math.log(a)
    d = e1 * math.log(b / a)
    if d > 30.0:  # no cancellation; the expm1 form would overflow
        return math.exp(e1 * math.log(b)) - math.exp(e1 * la)
    return math.exp(e1 * la) * math.expm1(d)


def power_log_integral(beta: float, m: int, a: float, b: float) -> float:
    """Exact integral of x^beta * log(x)^m over (a, b), 0 <= a < b < inf.

    Raises DivergenceError when a == 0 and the integral is infinite
    (beta <= -1).  The divergence test is symbolic, not numeric.
    """
    if m < 0:
        raise ValueError("log power must be a nonnegative integer")
    if a == 0.0 and beta <= -1.0:
        raise DivergenceError(f"integral of x^{beta} log^{m} x diverges at 0")
    if beta == -1.0:
        # antiderivative log(x)^{m+1} / (m+1)
        return (math.log(b) ** (m + 1) - math.log(a) ** (m + 1)) / (m + 1)
    e1 = beta + 1.0
    if m == 0:
        return _power_diff(e1, a, b) / e1
    # F(x) = x^{e1} * sum_{j=0..m} (-1)^j m!/(m-j)! * log(x)^{m-j} / e1^{j+1}
    def anti(x: float) -> float:
        if x == 0.0:
            return 0.0  # valid since e1 > 0 here
        lx = math.log(x)
        fact = 1.0
        acc = 0.0
        for j in range(m + 1):
            acc += ((-1.0) ** j) * fact * lx ** (m - j) / e1 ** (j + 1)
            fact *= m - j
        return x**e1 * acc

    return anti(b) - anti(a)


# The array forms below take the branches of the scalar ones, op for op, or call
# the scalar routine itself on each element (a log atom off beta = -1).  Their
# exp, log, expm1 and pow go element by element through the same scalar
# routines, because numpy's vector versions may round differently in the last
# bit: so every value equals the scalar one bit for bit, and an overflow raises
# OverflowError exactly where the scalar route raises it.  The arithmetic
# between them is numpy's, which rounds as Python's float arithmetic does.


def _each(fn: Callable[..., float], *args) -> np.ndarray:
    """fn of the arrays' elements, in step; scalar arguments are repeated."""
    n = next(len(x) for x in args if isinstance(x, np.ndarray))
    its = [x.tolist() if isinstance(x, np.ndarray) else repeat(x) for x in args]
    return np.fromiter(map(fn, *its), float, n)


class IntervalEnds:
    """Intervals (a_i, b_i), 0 <= a_i < b_i, as two arrays, with the logs the
    closed-form antiderivatives read.

    `logs` is (log a, log(b/a), log b), the first two NaN where a = 0,
    computed on first use and kept.  A subset `ends[idx]` reads them from
    the batch it was taken from, so every integral over one interval family
    computes each log once.  `mass` keeps each reference mass the same way.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a, self.b = a, b
        self._source: tuple[IntervalEnds, np.ndarray] | None = None
        self._masses: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, idx: np.ndarray) -> "IntervalEnds":
        """The intervals at a boolean mask, or at increasing positions."""
        if len(idx) == len(self) and (idx.dtype != bool or idx.all()):
            return self  # every interval: no copy
        sub = IntervalEnds(self.a[idx], self.b[idx])
        sub._source = (self, idx)
        return sub

    def mass(self, kind: MeasureKind) -> tuple[np.ndarray, np.ndarray]:
        """(int x^e dx over each interval, divergent) for kind = x^e dx, as
        `FuncExpr.integrate_many` of the constant 1 gives it, computed once
        per exponent; the values are read-only and divergent is a fresh copy."""
        if kind.exponent not in self._masses:
            mass, divergent = FuncExpr.constant(1.0).integrate_many(self, kind)
            mass.flags.writeable = False
            self._masses[kind.exponent] = mass, divergent
        mass, divergent = self._masses[kind.exponent]
        return mass, divergent.copy()

    @cached_property
    def logs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._source is not None:
            batch, idx = self._source
            return tuple(x[idx] for x in batch.logs)
        pos = self.a > 0.0
        la, lr = np.full(len(self), np.nan), np.full(len(self), np.nan)
        la[pos] = _each(math.log, self.a[pos])
        lr[pos] = _each(math.log, self.b[pos] / self.a[pos])
        return la, lr, _each(math.log, self.b)


def _power_diff_many(e1: float, ends: IntervalEnds) -> np.ndarray:
    """_power_diff over a batch; the caller has flagged a == 0 with e1 <= 0."""
    out = np.empty(len(ends))
    zero = ends.a == 0.0
    out[zero] = _each(pow, ends.b[zero], e1)
    la, lr, lb = (x[~zero] for x in ends.logs)
    d = e1 * lr
    big = d > 30.0
    vals = np.empty(len(d))
    vals[big] = _each(math.exp, e1 * lb[big]) - _each(math.exp, e1 * la[big])
    small = ~big
    vals[small] = _each(math.exp, e1 * la[small]) * _each(math.expm1, d[small])
    out[~zero] = vals
    return out


def _power_log_integral_many(
    beta: float, m: int, ends: IntervalEnds
) -> tuple[np.ndarray, np.ndarray]:
    """power_log_integral over every interval of the batch: (values, divergent).

    divergent is True exactly where the scalar raises DivergenceError; the
    value there is NaN.
    """
    if m < 0:
        raise ValueError("log power must be a nonnegative integer")
    divergent = (ends.a == 0.0) if beta <= -1.0 else np.zeros(len(ends), dtype=bool)
    out = np.full(len(ends), np.nan)
    live = ~divergent
    if beta == -1.0:
        la, _, lb = (x[live] for x in ends.logs)
        out[live] = (_each(pow, lb, m + 1) - _each(pow, la, m + 1)) / (m + 1)
        return out, divergent
    e1 = beta + 1.0
    if m == 0:
        out[live] = _power_diff_many(e1, ends[live]) / e1
    else:  # a log atom: the scalar antiderivative, element by element
        integral = lambda a, b: power_log_integral(beta, m, a, b)
        out[live] = _each(integral, ends.a[live], ends.b[live])
    return out, divergent


# ---------------------------------------------------------------------------
# BesselMeasure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BesselMeasure:
    """The measure dmu = x^{2*lam} dx on R_+, lam > 0.

    mu is doubling on intervals of the half-line; `doubling_ratio` exposes the
    two-interval ratio used by the crude certificate mu(2B)/mu(B) <=
    4 * 2^{2*lam+1}.
    """

    lam: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError("Bessel parameter must be positive")

    def mu(self, B: Interval) -> float:
        """mu(B) = (b^{2*lam+1} - a^{2*lam+1}) / (2*lam + 1)."""
        return power_log_integral(2.0 * self.lam, 0, B.a, B.b)

    def nu(self, class_lambda: float, B: Interval) -> float:
        """nu_c(B) = integral of x^{2c+1} dx over B (closed form)."""
        return power_log_integral(2.0 * class_lambda + 1.0, 0, B.a, B.b)

    def doubling_ratio(self, center: float, r: float) -> float:
        """mu((c-2r, c+2r) ∩ R_+) / mu((c-r, c+r) ∩ R_+)."""
        big = Interval.clipped(center - 2 * r, center + 2 * r)
        small = Interval.clipped(center - r, center + r)
        return self.mu(big) / self.mu(small)

    def average(self, f: "FuncExpr", B: Interval) -> float:
        """mu-average of f over B."""
        return f.integrate(B, dmu(self)) / self.mu(B)


# ---------------------------------------------------------------------------
# FuncExpr: piecewise power-log functions.
# ---------------------------------------------------------------------------

Atom = tuple[float, float, int]  # (coef, alpha, logpow)

_ROOT_SCAN = 257  # log-spaced points per cell that `_piece_roots` scans for sign changes
_ROOT_ITER = 200  # `_brentq` iterations per bracket: a triple root takes about 100


def _add_atoms(acc: dict[tuple[float, int], float], atoms: Iterable[Atom]) -> dict:
    """Add the atoms into acc by (alpha, logpow), in order, keeping no zero sum."""
    for c, alpha, m in atoms:
        if c == 0.0:
            continue
        key = (alpha, m)
        c += acc.get(key, 0.0)
        if c != 0.0:
            acc[key] = c
        else:
            del acc[key]
    return acc


def _atoms_of(acc: dict[tuple[float, int], float]) -> tuple[Atom, ...]:
    return tuple([(c, alpha, m) for (alpha, m), c in sorted(acc.items())])


def _atom_product(a1: tuple[Atom, ...], a2: tuple[Atom, ...]) -> tuple[Atom, ...]:
    """The atoms of the product of two atom sums, collected by (alpha, logpow)."""
    prods = [(c1 * c2, al1 + al2, m1 + m2) for c1, al1, m1 in a1 for c2, al2, m2 in a2]
    return _atoms_of(_add_atoms({}, prods))


def _atom_power(atoms: tuple[Atom, ...], s: float) -> tuple[Atom, ...]:
    """The atoms of (sum of atoms)^s; RepresentationError when it leaves the
    family (a real s on a log atom or a sum, a negative base)."""
    integer = float(s).is_integer() and s >= 0
    if len(atoms) > 1:
        if not integer:
            raise RepresentationError(
                "a real power of a sum of atoms leaves the representable family"
            )
        out: tuple[Atom, ...] = ((1.0, 0.0, 0),)
        for _ in range(int(s)):
            out = _atom_product(out, atoms)
        return out
    c, alpha, m = atoms[0]
    if m == 0:
        if c < 0.0:
            raise RepresentationError("negative base under real power")
        return ((c**s, alpha * s, 0),) if c != 0.0 else ()
    if integer:
        k = int(s)
        return ((c**k, alpha * k, m * k),)
    raise RepresentationError("real power of a log atom leaves the representable family")


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float  # may be math.inf
    atoms: tuple[Atom, ...]

    def eval(self, x: float) -> float:
        lx = math.log(x)
        return sum(c * x**alpha * lx**m for c, alpha, m in self.atoms)


class FuncExpr:
    """A function on R_+: finitely many cells of power-log sums, zero elsewhere."""

    __slots__ = ("pieces", "_los")

    def __init__(self, pieces: Sequence[Piece]):
        """The nonempty pieces with atoms, in order of lo.  A piece that runs
        past the next one's lo by at most 1e-15 relative (a sliver) is clipped
        there, and dropped when nothing is left; a larger overlap raises."""
        cleaned = sorted([p for p in pieces if p.atoms and p.lo < p.hi], key=lambda p: p.lo)
        out = []
        for p, nxt in zip(cleaned, cleaned[1:]):
            if nxt.lo < p.hi:
                if p.hi == math.inf or nxt.lo < p.hi - 1e-15 * max(1.0, p.hi):
                    raise ValueError("overlapping pieces")
                p = Piece(p.lo, nxt.lo, p.atoms)
            if p.lo < p.hi:
                out.append(p)
        self.pieces = tuple(out + cleaned[-1:])
        self._los = [p.lo for p in self.pieces]

    @classmethod
    def _of_cells(cls, pieces: list[Piece]) -> "FuncExpr":
        """FuncExpr(pieces) for pieces that are already nonzero, non-overlapping
        cells in order, such as the cells of one grid: the constructor's
        cleaning and sliver rule have nothing to do."""
        out = cls.__new__(cls)
        out.pieces, out._los = tuple(pieces), [p.lo for p in pieces]
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "FuncExpr":
        return cls([])

    @classmethod
    def constant(cls, c: float) -> "FuncExpr":
        return cls([Piece(0.0, math.inf, ((c, 0.0, 0),))]) if c != 0.0 else cls.zero()

    @classmethod
    def power(cls, c: float, alpha: float) -> "FuncExpr":
        """c * x^alpha on all of R_+."""
        return cls([Piece(0.0, math.inf, ((c, alpha, 0),))]) if c != 0.0 else cls.zero()

    @classmethod
    def log_power(cls, c: float, alpha: float, m: int) -> "FuncExpr":
        """c * x^alpha * log(x)^m on all of R_+."""
        return cls([Piece(0.0, math.inf, ((c, alpha, m),))]) if c != 0.0 else cls.zero()

    @classmethod
    def log_of_mu_density(cls, lam: float) -> "FuncExpr":
        """log x^{2*lam} = 2*lam * log x."""
        return cls.log_power(2.0 * lam, 0.0, 1)

    @classmethod
    def indicator(cls, B: Interval, value: float = 1.0) -> "FuncExpr":
        if value == 0.0:
            return cls.zero()
        return cls([Piece(B.a, B.b, ((value, 0.0, 0),))])

    @classmethod
    def piecewise_constant(
        cls, breakpoints: Sequence[float], values: Sequence[float]
    ) -> "FuncExpr":
        """Values v_i on cells (b_i, b_{i+1}); zero outside [b_0, b_last]."""
        if len(values) != len(breakpoints) - 1:
            raise ValueError("need len(values) == len(breakpoints) - 1")
        if any(x >= y for x, y in zip(breakpoints, breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if breakpoints[0] < 0.0:
            raise ValueError("breakpoints must lie in R_+")
        pieces = [
            Piece(lo, hi, ((v, 0.0, 0),))
            for lo, hi, v in zip(breakpoints, breakpoints[1:], values)
            if v != 0.0
        ]
        return cls(pieces)

    @classmethod
    def envelope(cls, intervals: Sequence[Interval], values: Sequence[float]) -> "FuncExpr":
        """On each cell of the intervals' endpoint arrangement, the max of the
        values of the intervals that cover it; zero off the intervals."""
        pts = sorted({x for B in intervals for x in (B.a, B.b)})
        best: list[float | None] = [None] * max(len(pts) - 1, 0)
        for B, v in zip(intervals, values):
            for i in range(bisect.bisect_left(pts, B.a), bisect.bisect_left(pts, B.b)):
                if best[i] is None or v > best[i]:
                    best[i] = v
        vals = [0.0 if v is None else v for v in best]
        return cls.piecewise_constant(pts, vals) if pts else cls.zero()

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.pieces

    def is_piecewise_constant(self) -> bool:
        return all(
            all(alpha == 0.0 and m == 0 for _, alpha, m in p.atoms)
            for p in self.pieces
        )

    def support_bounds(self) -> Interval | None:
        if not self.pieces:
            return None
        hi = self.pieces[-1].hi
        return None if hi == math.inf else Interval(self.pieces[0].lo, hi)

    def __call__(self, x: float) -> float:
        """Evaluate at x > 0; cells are half-open [lo, hi), zero off cells."""
        if x <= 0.0:
            return 0.0
        i = bisect.bisect_right(self._los, x) - 1
        if i < 0:
            return 0.0
        p = self.pieces[i]
        return p.eval(x) if x < p.hi else 0.0

    @staticmethod
    def _piece_eval_grid(p: Piece, xs: np.ndarray) -> np.ndarray:
        lx = np.log(xs)
        out = np.zeros_like(xs)
        for c, alpha, m in p.atoms:
            term = c * xs**alpha
            if m:
                term = term * lx**m
            out += term
        return out

    # -- arithmetic ----------------------------------------------------------

    def _cell_ranges(self, grid: list[float]) -> list[tuple[int, int, tuple[Atom, ...]]]:
        """(i, j, atoms) for each piece that meets the grid's span: the piece
        covers cells i .. j-1 of the grid, found by two bisects.

        Every piece end inside the span must be a grid point, as on the union
        grid of `_piece_ends`; PreconditionError otherwise."""
        out: list[tuple[int, int, tuple[Atom, ...]]] = []
        if len(grid) < 2:
            return out
        first, last = grid[0], grid[-1]
        j = 0
        for p in self.pieces[max(bisect.bisect_right(self._los, first) - 1, 0) :]:
            lo, hi = p.lo, p.hi
            if lo >= last:
                break
            if lo < first:
                lo = first
            if hi > last:
                hi = last
            if lo >= hi:
                continue
            i = bisect.bisect_left(grid, lo, j)
            j = bisect.bisect_left(grid, hi, i)
            if grid[i] != lo or grid[j] != hi:
                raise PreconditionError(
                    "a piece end inside the grid's span is not a grid point", witness=(p.lo, p.hi)
                )
            out.append((i, j, p.atoms))
        return out

    def _cells_on(self, grid: list[float]) -> list[tuple[Atom, ...]]:
        """The atoms on each cell of the grid, () off the pieces; each piece
        fills its range of cells (`_cell_ranges`)."""
        out: list[tuple[Atom, ...]] = [()] * (len(grid) - 1) if grid else []
        for i, j, atoms in self._cell_ranges(grid):
            out[i:j] = [atoms] * (j - i)
        return out

    @classmethod
    def sum(cls, terms: Iterable["FuncExpr"]) -> "FuncExpr":
        """t_1 + ... + t_n on the union grid of their piece ends, in one pass.

        Each cell adds the atoms of the terms' pieces that cover it (their
        ranges on that grid, `_cell_ranges`) in term order; zero atoms and a
        cell whose atoms cancel are dropped, so the sum of one term is that
        term cleaned.  One or two terms, as in every binary `+`, add each
        piece into each cell of its range; more terms go to `_sweep_sum`,
        which folds each cell from the running sums it shares with the cell
        before, linear in a nested family's size.
        """
        terms = list(terms)
        grid = _piece_ends(terms)
        if len(terms) > 2:
            return cls._of_cells(_sweep_sum(grid, [t._cell_ranges(grid) for t in terms]))
        cells: list[dict | None] = [None] * (len(grid) - 1)  # the running sum per cell
        for t in terms:
            for i, j, atoms in t._cell_ranges(grid):
                for k in range(i, j):
                    cell = cells[k]
                    if cell is None:
                        cell = cells[k] = {}
                    _add_atoms(cell, atoms)
        return cls._of_cells(
            [Piece(lo, hi, _atoms_of(cell)) for lo, hi, cell in zip(grid, grid[1:], cells) if cell]
        )

    def __add__(self, other: "FuncExpr | float") -> "FuncExpr":
        if isinstance(other, (int, float)):
            other = FuncExpr.constant(float(other))
        return FuncExpr.sum((self, other))

    def __neg__(self) -> "FuncExpr":
        return FuncExpr(
            [Piece(p.lo, p.hi, tuple((-c, a, m) for c, a, m in p.atoms)) for p in self.pieces]
        )

    def __sub__(self, other: "FuncExpr | float") -> "FuncExpr":
        if isinstance(other, (int, float)):
            other = FuncExpr.constant(float(other))
        return self + (-other)

    def __mul__(self, other: "FuncExpr | float") -> "FuncExpr":
        if isinstance(other, (int, float)):
            c = float(other)
            if c == 0.0:
                return FuncExpr.zero()
            return FuncExpr(
                [
                    Piece(p.lo, p.hi, tuple((c * co, a, m) for co, a, m in p.atoms))
                    for p in self.pieces
                ]
            )
        grid = _piece_ends((self, other))
        if not grid:
            return FuncExpr.zero()
        pieces = []
        for lo, hi, a1, a2 in zip(grid, grid[1:], self._cells_on(grid), other._cells_on(grid)):
            if not a1 or not a2:
                continue
            atoms = _atom_product(a1, a2)
            if atoms:
                pieces.append(Piece(lo, hi, atoms))
        return FuncExpr._of_cells(pieces)

    __rmul__ = __mul__

    def cells(self, B: Interval) -> list[tuple[float, float, tuple[Atom, ...]]]:
        """(lo, hi, atoms) tiling B in order: the pieces clipped to B, and ()
        on the gaps between them."""
        out, x = [], B.a
        for p in self.pieces[max(bisect.bisect_right(self._los, B.a) - 1, 0) :]:
            if p.lo >= B.b:
                break
            lo, hi = max(p.lo, B.a), min(p.hi, B.b)
            if lo < hi:
                if lo > x:
                    out.append((x, lo, ()))
                out.append((lo, hi, p.atoms))
                x = hi
        if x < B.b:
            out.append((x, B.b, ()))
        return out

    def restrict(self, B: Interval) -> "FuncExpr":
        return FuncExpr._of_cells([Piece(lo, hi, a) for lo, hi, a in self.cells(B) if a])

    def powf(self, s: float) -> "FuncExpr":
        """Pointwise power f^s, cell by cell (`_atom_power`): any real s on a
        single power atom c x^alpha, c >= 0; an integer s >= 0 on any cell, a
        sum of atoms multiplied out within the family."""
        return FuncExpr([Piece(p.lo, p.hi, _atom_power(p.atoms, s)) for p in self.pieces])

    # -- sign handling -------------------------------------------------------

    @staticmethod
    def _piece_roots(p: Piece) -> list[float]:
        """Sign-change points of the cell's atom sum inside (p.lo, p.hi).

        An unbounded cell [lo, inf) is cut at s = max(lo, 1): the roots below
        s are found directly, s itself is kept when the sum vanishes there,
        and the roots beyond s are the reciprocals of the roots of f(1/y) =
        sum c (-1)^m y^{-a} log^m y, a sum of the same family, on (0, 1/s].
        """
        lo, hi = p.lo, p.hi
        if hi == math.inf:
            s = max(lo, 1.0)
            flip = Piece(0.0, 1.0 / s, tuple((c * (-1) ** m, -a, m) for c, a, m in p.atoms))
            far = [1.0 / r for r in reversed(FuncExpr._piece_roots(flip))]
            if lo == s:
                return far
            return FuncExpr._piece_roots(Piece(lo, s, p.atoms)) + [s] * (p.eval(s) == 0.0) + far
        lo_eff = lo if lo > 0.0 else hi * 1e-15
        xs = np.geomspace(lo_eff, hi, _ROOT_SCAN)
        vals = FuncExpr._piece_eval_grid(p, xs)
        # scan points where the sum is 0, and brackets where it changes sign
        head, tail = vals[:-1], vals[1:]
        roots = [
            _brentq(p.eval, xs[i], xs[i + 1], rtol=1e-15, maxiter=_ROOT_ITER)
            if head[i]
            else float(xs[i])
            for i in np.flatnonzero((head == 0.0) | (head * tail < 0.0))
        ]
        # dedupe
        out: list[float] = []
        for r in roots:
            if lo < r < hi and (not out or r > out[-1] * (1 + 1e-13)):
                out.append(r)
        return out

    @staticmethod
    def _split(p: Piece) -> list[tuple[float, float, int]]:
        """The cell cut at its sign changes: (lo, hi, sign of the atom sum
        there), read at the geometric midpoint, or from the coefficient of a
        single pure power, which keeps one sign."""
        if len(p.atoms) == 1 and p.atoms[0][2] == 0:
            cuts, vals = [p.lo, p.hi], [p.atoms[0][0]]
        else:
            cuts = [p.lo] + FuncExpr._piece_roots(p) + [p.hi]
            vals = [p.eval(_geometric_mid(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
        return [(lo, hi, 0 if v == 0.0 else (1 if v > 0.0 else -1))
                for lo, hi, v in zip(cuts, cuts[1:], vals)]

    def abs(self) -> "FuncExpr":
        """|f| by splitting cells at sign changes (finite cells only)."""
        pieces = []
        for p in self.pieces:
            if p.hi == math.inf:
                raise RepresentationError("abs() requires finite cells; restrict first")
            for lo, hi, sgn in self._split(p):
                atoms = p.atoms if sgn >= 0 else tuple((-c, a, m) for c, a, m in p.atoms)
                pieces.append(Piece(lo, hi, atoms))
        return FuncExpr(pieces)

    def sign_regions(self, B: Interval) -> list[tuple[Interval, int]]:
        """Partition of B into cells of constant sign (+1, -1, 0): the cells of
        f cut at their sign changes, and 0 on the gaps between them."""
        out = []
        for lo, hi, atoms in self.cells(B):
            cuts = self._split(Piece(lo, hi, atoms)) if atoms else [(lo, hi, 0)]
            out += [(Interval(a, b), sgn) for a, b, sgn in cuts]
        return out

    def monotone_runs(self, B: Interval) -> list[tuple[float, float, Piece, int]]:
        """(lo, hi, piece, direction) tiling B in order: the cells of f on B
        (`piece`, with no atoms on a gap) cut where f' changes sign, with
        direction +1 or -1 where f increases or decreases, 0 on a constant
        cell or a gap.  Neighbouring regions of one piece with one direction
        form one run, so a double root of f' does not split it; f' read as 0
        at a region's geometric midpoint is read again at its arithmetic one."""
        runs: list[tuple[float, float, Piece, int]] = []
        for lo, hi, atoms in self.cells(B):
            p = Piece(lo, hi, atoms)
            slope = FuncExpr([p]).derivative().pieces  # () on a constant cell or a gap
            for a, b, d in FuncExpr._split(slope[0]) if slope else [(lo, hi, 0)]:
                if not d and slope:
                    v = slope[0].eval(0.5 * (a + b))
                    d = (v > 0.0) - (v < 0.0)
                if runs and runs[-1][2] is p and runs[-1][3] == d:
                    a = runs.pop()[0]
                runs.append((a, b, p, d))
        return runs

    def value_range(self, B: Interval) -> tuple[float, float]:
        """(inf, sup) of f on B, read at the ends of its monotone runs, where
        its extrema lie (at 0 through its limit, which may be infinite); a gap
        of B contributes the value 0."""
        return _run_range(self.monotone_runs(B))

    def derivative(self) -> "FuncExpr":
        """f' inside each cell, by d/dx c x^a log^m x = c x^{a-1} (a log^m x +
        m log^{m-1} x); the jumps between cells are not represented."""
        pieces = []
        for p in self.pieces:
            terms = [(c * a, a - 1.0, m) for c, a, m in p.atoms]
            terms += [(c * m, a - 1.0, m - 1) for c, a, m in p.atoms if m]
            pieces.append(Piece(p.lo, p.hi, _atoms_of(_add_atoms({}, terms))))
        return FuncExpr(pieces)

    # -- integration ---------------------------------------------------------

    def integrate(self, B: Interval, kind: MeasureKind) -> float:
        """Exact integral of f * x^e dx over B; symbolic divergence detection."""
        total = 0.0
        for p in self.pieces:
            lo, hi = max(p.lo, B.a), min(p.hi, B.b)
            if lo >= hi:
                continue
            for c, alpha, m in p.atoms:
                total += c * power_log_integral(alpha + kind.exponent, m, lo, hi)
        return total

    def integrate_many(
        self, ends: IntervalEnds, kind: MeasureKind
    ) -> tuple[np.ndarray, np.ndarray]:
        """`integrate` over every interval of the batch in one pass:
        (values, divergent).

        Each atom is integrated once, over all the intervals its cell meets,
        clipped as `integrate` clips them.  The values equal `integrate`'s bit
        for bit.  divergent is True where `integrate` raises DivergenceError;
        the value there is NaN, and later atoms skip the interval, as
        `integrate` stops at that atom too.
        """
        total = np.zeros(len(ends))
        divergent = np.zeros(len(ends), dtype=bool)
        for p in self.pieces:
            lo, hi = np.maximum(ends.a, p.lo), np.minimum(ends.b, p.hi)
            hit = np.flatnonzero((lo < hi) & ~divergent)
            cell = ends[hit]
            if (cell.a < p.lo).any() or (cell.b > p.hi).any():
                cell = IntervalEnds(lo[hit], hi[hit])
            for c, alpha, m in p.atoms:
                v, div = _power_log_integral_many(alpha + kind.exponent, m, cell)
                total[hit] += c * v
                divergent[hit[div]] = True
                hit, cell = hit[~div], cell[~div]
        total[divergent] = np.nan
        return total, divergent

    def lp_integral(self, p_exp: float, weight: "FuncExpr", B: Interval) -> float:
        """integral of |f|^p * weight dx over B: `lp_integrals` at one p."""
        return self.lp_integrals((p_exp,), weight, B)[0]

    def lp_integrals(
        self, ps: Sequence[float], weight: "FuncExpr", B: Interval
    ) -> tuple[float, ...]:
        """integral of |f|^p * weight dx over B for each p of ps, in one walk
        over the cells of f cut at the weight's breakpoints (`_cell_lp`).
        Each p gathers its Gauss-Legendre segments over the walk and sums
        them at its end in one `_legendre_sum`; its value does not depend on
        the other ps."""
        f = self.restrict(B)
        grid = _piece_ends((f, weight.restrict(B)))
        totals = [0.0] * len(ps)
        rules: list[list[tuple[float, ...]]] = [[] for _ in ps]
        for lo, hi, fa, wa in zip(grid, grid[1:], f._cells_on(grid), weight._cells_on(grid)):
            if fa and wa:
                _cell_lp(fa, wa, ps, lo, hi, totals, rules)
        for i, rule in enumerate(rules):
            if rule:
                totals[i] += _legendre_sum(ps[i], *np.array(rule).T)
        return tuple(totals)


def _piece_ends(fs: Iterable[FuncExpr]) -> list[float]:
    """The sorted ends of every piece of the fs: the grid their cells share."""
    pts = set()
    for f in fs:
        for p in f.pieces:
            pts.add(p.lo)
            pts.add(p.hi)
    return sorted(pts)


def _sweep_sum(
    grid: list[float], ranges: list[list[tuple[int, int, tuple[Atom, ...]]]]
) -> list[Piece]:
    """The nonzero cells of `FuncExpr.sum`, swept from left to right with a
    stack of running sums (Lerner and Nazarov, "Intuitive dyadic calculus:
    the basics", 2019): `active` holds the terms whose pieces cover the cell,
    in term order, and stack[q] the atoms of active[0] + ... + active[q].
    Where pieces start or end, the stack is cut back to the lowest term that
    changed and the terms from there on are added again, so each cell is
    still folded in term order, bit for bit; on a chain given ancestor first
    that re-adds O(1) terms."""
    changes: list[list[tuple[int, tuple[Atom, ...] | None]]] = [[] for _ in grid]
    for t, rs in enumerate(ranges):
        for i, j, atoms in rs:  # in order, so a piece ends before the next one starts
            changes[i].append((t, atoms))
            changes[j].append((t, None))
    on: dict[int, tuple[Atom, ...]] = {}  # term -> the atoms of its piece on the cell
    active: list[int] = []
    stack: list[dict] = []
    out = []
    for lo, hi, events in zip(grid, grid[1:], changes):
        for t, atoms in events:
            if atoms is None:
                del active[bisect.bisect_left(active, t)], on[t]
            else:
                bisect.insort(active, t)
                on[t] = atoms
        q = bisect.bisect_left(active, min((t for t, _ in events), default=len(ranges)))
        del stack[q:]
        for t in active[q:]:
            stack.append(_add_atoms(dict(stack[-1]) if stack else {}, on[t]))
        if stack and stack[-1]:
            out.append(Piece(lo, hi, _atoms_of(stack[-1])))
    return out


def _limit_at_zero(p: Piece) -> float:
    """lim p(x) as x -> 0+: the atom of least exponent, and of those the
    highest log power, dominates."""
    a, neg_m, c = min((a, -m, c) for c, a, m in p.atoms)
    if a > 0.0:
        return 0.0
    return c if (a, neg_m) == (0.0, 0) else math.copysign(math.inf, c * (-1) ** neg_m)


def _value_at(p: Piece, x: float) -> float:
    """p(x), read at x = 0 as its limit from the right."""
    return p.eval(x) if x > 0.0 else _limit_at_zero(p)


def _run_range(runs: list[tuple[float, float, Piece, int]]) -> tuple[float, float]:
    """(inf, sup) over monotone runs, read at their ends; a gap has the value 0."""
    vals = [_value_at(p, x) if p.atoms else 0.0 for lo, hi, p, _ in runs for x in (lo, hi)]
    return min(vals), max(vals)


def _geometric_mid(lo: float, hi: float) -> float:
    if lo > 0.0 and hi < math.inf:
        return math.sqrt(lo) * math.sqrt(hi)  # sqrt(lo * hi) underflows below 1e-308
    if hi == math.inf:
        return max(2.0 * lo, 1.0)
    return hi / 2.0


def _cell_lp(
    fa: tuple[Atom, ...], wa: tuple[Atom, ...], ps: Sequence[float], lo: float, hi: float,
    totals: list[float], rules: list[list[tuple[float, ...]]],
) -> None:
    """Add int_lo^hi |f|^p w dx on one cell to totals[i] for each p = ps[i],
    f and w the atom sums fa and wa; the Gauss-Legendre segments of ps[i] go
    to rules[i] instead.

    - f = c x^a, w = cw x^b: (|c|^p cw) int x^{a p + b} dx in closed form,
      the operations the route below takes on such a cell, in its order.
    - f = x^a (c1 log x + c0), p > 0, w a sum of powers: `_power_log_lp` in
      u = log x, at either sign of f and at integer p too: multiplied out,
      (c1 u + c0)^p cancels near the root (2e-9 lost on a bmo-equivalence
      cell 0.0034 wide in u that ends at the root).
    - any other f: each part between its sign changes (`FuncExpr._split`) in
      closed form when |f|^p is in the family (`_atom_power`), else `_lp_quad`.
    """
    if len(fa) == 1 == len(wa) and fa[0][0] and fa[0][2] == 0 == wa[0][2]:
        (c, a, _), (cw, b, _) = fa[0], wa[0]
        for i, p in enumerate(ps):
            k = abs(c) ** p * cw
            if k:
                totals[i] += k * power_log_integral(a * p + b, 0, lo, hi)
        return
    a = fa[0][1]
    power_log = (
        all(al == a and m <= 1 for _, al, m in fa) and fa[-1][2] == 1
        and all(m == 0 for *_, m in wa)
    )
    if power_log:
        c0, c1 = (fa[0][0], fa[1][0]) if len(fa) == 2 else (0.0, fa[0][0])
        u0, u1 = math.log(lo) if lo > 0.0 else -math.inf, math.log(hi)
    parts = None
    for i, (p, rule) in enumerate(zip(ps, rules)):
        if power_log and p > 0.0:
            totals[i] += sum(
                cw * _power_log_lp(c0, c1, p, p * a + b + 1.0, u0, u1, cw, rule) for cw, b, _ in wa
            )
            continue
        if parts is None:
            parts = [
                (plo, phi, fa if sgn >= 0 else tuple((-c, al, m) for c, al, m in fa))
                for plo, phi, sgn in FuncExpr._split(Piece(lo, hi, fa))
            ]
        total = 0.0
        for plo, phi, part in parts:
            try:
                powered = _atom_power(part, p)
            except RepresentationError:
                total += _lp_quad(part, wa, p, plo, phi)
            else:
                atoms = _atom_product(powered, wa)
                total += sum(c * power_log_integral(al, m, plo, phi) for c, al, m in atoms)
        totals[i] += total


def _lp_quad(
    fa: tuple[Atom, ...], wa: tuple[Atom, ...], p_exp: float, lo: float, hi: float
) -> float:
    """int_lo^hi |f|^p w dx by `_guarded_quad` in u = log x, lo = 0 allowed,
    with e^{expo u}, expo = p min_a(f) + min_a(w) + 1, taken out so that every
    term stays bounded as u -> -inf: a zero-based cell diverges when expo <= 0
    (symbolic), and is cut where e^{expo u} is e^-80 of its value at hi."""
    a_f = min(a for _, a, _ in fa)
    a_w = min(a for _, a, _ in wa)
    expo = p_exp * a_f + a_w + 1.0
    if lo == 0.0 and expo <= 0.0:
        raise DivergenceError("p-mass integral diverges at 0")
    u1 = math.log(hi)
    u0 = math.log(lo) if lo > 0.0 else u1 - max(80.0, 80.0 / expo)

    def F(u: float) -> float:
        s = sum(c * math.exp((a - a_f) * u) * u**m for c, a, m in fa)
        t = sum(c * math.exp((a - a_w) * u) * u**m for c, a, m in wa)
        return abs(s) ** p_exp * t * math.exp(expo * u)

    return _guarded_quad(F, u0, u1, 1e-10)


# ---------------------------------------------------------------------------
# |c1 u + c0|^p e^{s u} in closed form and by Gauss rules with a-priori bounds.
# ---------------------------------------------------------------------------

_LP_TOL = 2.0**-55  # a-priori bound on the relative error of each segment's rule
_LP_SERIES = 20  # terms of `_root_series`: below _LP_TOL for |x| <= 1 (see there)
_LP_TAIL = 40.0  # s times the depth below hi past which a zero cell's mass is < e^-40 of the rest
_GAMMA_SERIES_Z = 50.0  # e^z Gamma(a, z) by its asymptotic series past this z


def _root_series(p: float, x: float) -> float:
    """int_0^1 v^p e^{x v} dv = sum_k x^k / (k! (p + 1 + k)), |x| <= 1 (the
    series of the lower incomplete gamma, DLMF 8.7.1).

    The terms past k = K sum to at most 1.1 / (K! (p + 1 + K)), and the
    integral is at least e^-1 / (p + 1), so K = 20 leaves a relative error
    below 3 / 20! = 1.3e-18; the largest term is at most e times the sum.
    """
    term, total = 1.0, 1.0 / (p + 1.0)
    for k in range(1, _LP_SERIES):
        term *= x / k
        total += term / (p + 1.0 + k)
    return total


@cache
def _legendre(p: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights for |y - y*|^p e^{kappa y} on [-1, 1]
    with |y*| >= 3 and |kappa| <= 1/2, n from the a-priori bound.

    The integrand is analytic in the Bernstein ellipse E_rho, rho = 4 (semi-
    axis A = 17/8 < 3), where it is at most (|y*| + A)^p e^{|kappa| A}, so the
    error is at most (64/15) M rho^{-2n} / (rho^2 - 1) (Trefethen,
    Approximation Theory and Approximation Practice, Thm 19.3).  The integral
    is at least 2 (|y*| - 1)^p e^{-|kappa|}; the ratio is largest at |y*| = 3.
    """
    rho, semi = 4.0, 17.0 / 8.0
    ratio = ((3.0 + semi) / 2.0) ** p * math.exp((semi + 1.0) / 2.0)
    bound = 32.0 / 15.0 / (rho**2 - 1.0) * ratio
    return _gauss_nodes(math.ceil(math.log(bound / _LP_TOL) / (2.0 * math.log(rho))))


@cache
def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1]: Newton's from
    Tricomi's guesses on the recurrence of P_n, with no eigenvalue solver."""
    y = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):  # quadratic convergence from guesses within 1/n^2
        q0, q1 = np.ones(n), y
        for k in range(2, n + 1):
            q0, q1 = q1, ((2 * k - 1) * y * q1 - (k - 1) * q0) / k
        dq = n * (y * q1 - q0) / (y * y - 1.0)  # P_n'(y)
        y = y - q1 / dq
    return y, 2.0 / ((1.0 - y * y) * dq * dq)


def _scaled_gamma_tail(a: float, z: float) -> float:
    """e^z Gamma(a, z) for z >= 0, a > 1 (DLMF 8.2.2), in three forms.
    - Below z = a + 1: e^z Gamma(a) - z^a sum_n z^n / (a)_{n+1} (DLMF 8.7.1),
      stopped at a term below 2^-56 of the sum once the next ratio z / (a + n
      + 1) is below 1/2.  Gamma(a, z) / Gamma(a) > Gamma(1, 2) = 0.135 there,
      so the difference loses at most three bits.
    - Up to max(50, 2a): z^a times Legendre's continued fraction (DLMF 8.9.2)
      by the modified Lentz method, to a last factor within 2^-53 of 1.
    - Past that: z^{a-1} sum_k (a-1)...(a-k) / z^k (DLMF 8.11.2), summed to
      below 1e-17 of the total: each term is at most half the one before while
      k < a + z/2, and once they alternate the remainder is below the first
      one left out (DLMF 8.11(i)).
    """
    if z < a + 1.0:
        term = total = 1.0 / a
        n = 0
        while term > 2.0**-56 * total or 2.0 * z > a + n + 1.0:
            n += 1
            term *= z / (a + n)
            total += term
        return math.exp(z) * math.gamma(a) - z**a * total
    if z <= max(_GAMMA_SERIES_Z, 2.0 * a):
        tiny = 1e-300  # stands in for a zero denominator
        b = z + 1.0 - a
        c, d = 1.0 / tiny, 1.0 / b
        h, k, factor = d, 0, 0.0
        while abs(factor - 1.0) >= 2.0**-53:
            k += 1
            an, b = k * (a - k), b + 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = b + an / c
            factor = d * (c if abs(c) > tiny else tiny)
            h *= factor
        return z**a * h
    term = total = 1.0
    k = 1
    while abs(term) > 1e-17 * total:
        term *= (a - k) / z
        total += term
        k += 1
    return z ** (a - 1.0) * total


def _power_log_lp(
    c0: float, c1: float, p: float, s: float, u0: float, u1: float,
    cw: float, rule: list[tuple[float, ...]],
) -> float:
    """int_{u0}^{u1} |c1 u + c0|^p e^{s u} du, p > 0, c1 != 0; u0 = -inf
    allowed (a zero-based cell in u = log x).  The Gauss-Legendre segments
    go to `rule` as rows (c0, c1, s, cw, ua, ub), to be summed with the
    factor cw by `_legendre_sum`; the rest is returned.

    With r = -c0/c1 and t = |u - r| the integrand is |c1|^p t^p e^{s u}:
    - a zero-based cell below r is |c1|^p e^{s u1} s^{-p-1} e^z Gamma(p+1, z),
      z = s (r - u1) (DLMF 8.2.2); DivergenceError when s <= 0;
    - a zero-based cell across r is the same at z = 0 up to r, plus the finite
      cell from r; when r lies more than _LP_TAIL / s below u1 that finite
      cell starts there instead, leaving out less than e^-40 of it;
    - a finite cell is cut into segments of |s| times width <= 1, aligned to
      r when r is within one cell width: a segment ending at r by the series
      `_root_series`, one within its own width of r as the difference of two
      of those (the part subtracted is at most e 2^-(p+1) of the whole),
      and any other, at least its width from r, by Gauss-Legendre.
    Each segment's rule meets the relative bound _LP_TOL a priori.
    """
    r = -c0 / c1
    c1p = abs(c1) ** p
    if u0 == -math.inf:
        if s <= 0.0:
            raise DivergenceError("p-mass integral diverges at 0")
        if r >= u1:
            tail = _scaled_gamma_tail(p + 1.0, s * (r - u1))
            return c1p * math.exp(s * u1) * tail / s ** (p + 1.0)
        head = c1p * math.exp(s * r) * math.gamma(p + 1.0) / s ** (p + 1.0)
        return head + _power_log_lp(c0, c1, p, s, max(r, u1 - _LP_TAIL / s), u1, cw, rule)
    h = 1.0 / abs(s) if s else math.inf  # the segment width in u
    width = u1 - u0
    if not u0 - width < r < u1 + width:  # r at least a cell width away
        n = math.ceil(width / h) if h < width else 1
        ua = [u0 + width / n * k for k in range(n)]
        rule += [(c0, c1, s, cw, a, b) for a, b in zip(ua, ua[1:] + [u1])]
        return 0.0
    if r <= u0:
        sides = [(u0 - r, u1 - r, 1.0)]
    elif r >= u1:
        sides = [(r - u1, r - u0, -1.0)]
    else:
        sides = [(0.0, u1 - r, 1.0), (0.0, r - u0, -1.0)]

    def root_segment(t: float, sign: float) -> float:  # int_0^t of t'^p e^{sign s t'} dt'
        return t ** (p + 1.0) * _root_series(p, sign * s * t)

    total = 0.0
    for t0, t1, sign in sides:
        if t0 < h:
            b = min(t1, h)
            if t0 == 0.0 or 2.0 * t0 <= b:
                total += c1p * math.exp(s * r) * (
                    root_segment(b, sign) - (root_segment(t0, sign) if t0 else 0.0)
                )
            else:
                rule.append((c0, c1, s, cw, r + sign * t0, r + sign * b))
            t0 = b
        if t0 < t1:  # blocks [k h, (k+1) h], k >= 1: each at least its width from r
            ks = range(math.floor(t0 / h) + 1, math.ceil(t1 / h))
            ts = [t0] + [k * h for k in ks if t0 < k * h < t1] + [t1]
            rule += [(c0, c1, s, cw, r + sign * a, r + sign * b) for a, b in zip(ts, ts[1:])]
    return total


def _legendre_sum(
    p: float, c0: np.ndarray, c1: np.ndarray, s: np.ndarray, cw: np.ndarray,
    ua: np.ndarray, ub: np.ndarray,
) -> float:
    """sum over the segments i of cw_i int_{ua_i}^{ub_i} |c1_i u + c0_i|^p
    e^{s_i u} du by Gauss-Legendre, each segment at least its width from its
    root, in one array pass."""
    y, w = _legendre(p)
    mid, half = (ua + ub) / 2.0, np.abs(ub - ua) / 2.0
    u = mid[:, None] + half[:, None] * y
    vals = np.abs(c1[:, None] * u + c0[:, None]) ** p * np.exp(s[:, None] * u)
    return float((cw * half) @ (vals @ w))


# ---------------------------------------------------------------------------
# The bracketed root solver and the scalar inverse of monotone functions.
# ---------------------------------------------------------------------------

_LOG_X_RANGE = 700.0  # exp(+-700) stays inside the double range
_LOG_X_MAX = math.log(sys.float_info.max)  # exp of it is the largest float


def _brentq(
    f: Callable[[float], float], a: float, b: float,
    xtol: float = 2e-12, rtol: float = 2.0**-50, maxiter: int = 100,
) -> float:
    """A root of f in [a, b], f(a) and f(b) of opposite signs, to within
    xtol + rtol |x|, by Brent's method (Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 4): inverse quadratic or secant steps,
    bisection whenever a step is not short enough.

    A line-for-line port of scipy.optimize.brentq, with its defaults (rtol is
    4 eps) and its iterates bit for bit.  Its C code divides by zero to inf
    or nan, which fails the short-step test; here a ZeroDivisionError bisects
    instead.  ValueError for ends of one sign or a NaN value, RuntimeError
    after maxiter iterations.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless an interpolated step is short enough
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's inf or nan, which fails the test below
                pass
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


_BOUNDED_MAXFUN = 500  # evaluations of `_bounded_minimum`, the first included


def _bounded_minimum(f: Callable[[float], float], x1: float, x2: float, xatol: float) -> float:
    """f at a local minimiser in [x1, x2], located to within
    xatol + sqrt(2.2e-16) |x|, by Brent's method (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5): a parabola through the
    three best points when its vertex falls inside the bracket and the step
    shrinks, a golden-section step otherwise.

    A line-for-line port of scipy.optimize.minimize_scalar(method="bounded")
    with scipy's maxiter: it returns that call's `fun` bit for bit, the value
    at the last accepted point, after at most 500 evaluations.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # a parabola through xf, nfc and fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:  # too near an end: step tol1 toward the middle
                    rat = tol1 if xm - xf >= 0.0 else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BOUNDED_MAXFUN:
            break
    return fx


def monotone_inverse(
    f: Callable[[float], float],
    level: float,
    lo: float,
    hi: float,
    increasing: bool = True,
) -> float:
    """x in [lo, hi] where the monotone f reaches level, clipped to the ends:
    lo when f is already past level there, hi when f never gets there.

    The search runs in u = log x to the tolerance 1e-15, which is relative
    in x only: no absolute floor swamps a crossing at 1e-50.  That leaves an
    error of up to 4 eps |u| in x, so one last secant step in x across the
    bracket around the u-root finishes to a few eps.  lo = 0 and hi = inf are
    allowed: an open end is walked out from the other end (or from x = 1) in
    doubling steps of u, no further than exp(-700) downward and, after exp(700),
    one last step to the largest float upward.  f is called at x > 0 only, and
    never outside [lo, hi].
    """
    sign = 1.0 if increasing else -1.0
    if lo > 0.0 and sign * (f(lo) - level) >= 0.0:
        return lo
    if hi < math.inf and sign * (f(hi) - level) <= 0.0:
        return hi
    log_lo = math.log(lo) if lo > 0.0 else -math.inf
    log_hi = math.log(hi) if hi < math.inf else math.inf

    def x_of(u: float) -> float:
        return lo if u <= log_lo else hi if u >= log_hi else min(max(math.exp(u), lo), hi)

    def g(u: float) -> float:  # nondecreasing in u, negative below the crossing
        return sign * (f(x_of(u)) - level)

    a, b = log_lo, log_hi
    if math.isinf(a) or math.isinf(b):
        if math.isinf(a) and math.isinf(b):
            anchor, up = 0.0, g(0.0) < 0.0
        else:
            anchor, up = (a, True) if math.isinf(b) else (b, False)
        reach = _LOG_X_RANGE - anchor if up else _LOG_X_RANGE + anchor
        last = _LOG_X_MAX - anchor if up else reach
        near, step = anchor, 1.0
        while True:
            u = anchor + step if up else anchor - step
            if (g(u) >= 0.0) == up:
                break
            if step >= last:
                return hi if up else lo
            near, step = u, min(2.0 * step, reach) if step < reach else last
        a, b = (near, u) if up else (u, near)
    u = _brentq(g, a, b, xtol=1e-15)
    d = 2e-15 * (1.0 + abs(u))  # twice `_brentq`'s bound on the distance to the root
    ua, ub = max(u - d, a), min(u + d, b)
    ga, gb = g(ua), g(ub)
    if ga < 0.0 < gb:  # f is linear to within eps across so narrow a bracket
        xa = x_of(ua)
        return xa + (x_of(ub) - xa) * (ga / (ga - gb))
    return x_of(u)


# ---------------------------------------------------------------------------
# Guarded adaptive quadrature for callables that leave the family.
# ---------------------------------------------------------------------------


_QUAD_ABS_FLOOR = 1e-300  # absolute accuracy asked of quad next to rel_tol
_QUAD_LIMIT = 200  # subintervals of `_guarded_quad`, panels of `_gauss_legendre`
_NARROW_PANEL = 100 * 2.0**-52  # a panel this narrow, relative to its midpoint, is not halved


def integrate_callable(
    g: Callable[[float], float],
    B: Interval,
    kind: MeasureKind = DX,
    rel_tol: float = 1e-10,
) -> float:
    """integral of g(x) * x^e dx over B by `_guarded_quad`."""
    e = kind.exponent
    integrand = (lambda x: g(x)) if e == 0.0 else (lambda x: g(x) * x**e)
    return _guarded_quad(integrand, B.a, B.b, rel_tol)


def _guarded_quad(fn: Callable[[float], float], a: float, b: float, rel_tol: float) -> float:
    """integral of fn over (a, b) by adaptive quadrature.

    Subdivision is bounded by scipy's limit; failure to reach `rel_tol`
    relative accuracy (with a tiny absolute floor) raises QuadratureError
    reporting the achieved error estimate.  scipy is imported here, on the
    first call, so that only runs that leave the family load it.
    """
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        # the explicit error check below supersedes scipy's advisory warnings
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(fn, a, b, limit=_QUAD_LIMIT, epsabs=_QUAD_ABS_FLOOR, epsrel=rel_tol)
    return _checked(val, err, rel_tol)


def _checked(val: float, err: float, rel_tol: float) -> float:
    """val; DivergenceError if it is not finite, QuadratureError if err misses rel_tol."""
    if not math.isfinite(val):
        raise DivergenceError("quadrature returned a non-finite value")
    if err > rel_tol * max(abs(val), 1e-12) and err > 1e-13:
        raise QuadratureError(
            f"quadrature did not converge: estimated error {err:.3e} on value {val:.6e}",
            achieved_error=err,
        )
    return val


def _gauss_legendre(
    fn: Callable[[np.ndarray], np.ndarray], a: float, b: float, rel_tol: float
) -> float:
    """integral over (a, b) of fn, analytic on [a, b] and evaluated on an
    array of nodes, by composite Gauss-Legendre: a panel keeps its 32-node
    sum when its 16-node sum agrees to rel_tol, and is halved otherwise.
    Past _QUAD_LIMIT panels, or on a panel too narrow to halve, the panels
    left are kept, and the summed disagreements are checked as
    `_guarded_quad` checks quad's error estimate."""
    (y16, w16), (y32, w32) = _gauss_nodes(16), _gauss_nodes(32)
    total = err = 0.0
    panels, n = [(a, b)], 1
    while panels:
        lo, hi = panels.pop()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fine = half * float(fn(mid + half * y32) @ w32)
        diff = abs(fine - half * float(fn(mid + half * y16) @ w16))
        if not math.isfinite(diff):
            raise DivergenceError("quadrature returned a non-finite value")
        done = diff <= max(rel_tol * abs(fine), _QUAD_ABS_FLOOR) or half <= _NARROW_PANEL * abs(mid)
        if done or n >= _QUAD_LIMIT:
            total += fine
            err += diff
        else:
            panels += [(mid, hi), (lo, mid)]  # the left half is taken first
            n += 1
    return _checked(total, err, rel_tol)
