"""BMO-type norms and median-oscillation machinery.

Per interval B = (a, b) the flavors computed here are:

    triangle:    (1/mu(B)) int_B |f - f_B| dmu,          f_B the mu-average,
    weighted Lp: ((1/w(B)) int_B |f - f_B|^p w dx)^{1/p}  (note the hybrid:
                 the centering average is against mu, the integral against
                 w dx; implemented literally),
    median:      sup_B inf_c inf{ t >= 0 : w({x in B : |f-c| > t}) <= s w(B) }.

Each report takes the maximum over a declared interval family and is a
certified lower bound of the corresponding supremum.  Medians follow the
infimum convention: alpha = inf{ g : w({f > g} ∩ B) <= w(B)/2 }, which makes
both defining half-mass inequalities hold exactly and fixes determinism.

Superlevel sets are exact interval unions, so all set measures below are
closed-form, not sampled.  The triangle and weighted Lp flavours are one
`FuncExpr.lp_integral` each, at p = 1 against x^{2 lam} dx and at p against
w dx.

Each public call classifies its (symbol, interval, measure) once: a
piecewise-constant symbol into a table of (value, w-mass) cells, any other
into its monotone runs on B (`FuncExpr.monotone_runs`), each level set
{b > g} being every run cut at g by `measure.monotone_inverse`.  Every median
is Q(w(B)/2) of the increasing rearrangement Q(m) = inf{ g : w({b > g}) <=
w(B) - m }, read from the table, from the closed-form mass cut of one run,
or by a scalar inverse over the value range.  An infimum over centres c is
half the shortest value window of mass w(B) - level (the shorth): for a step
symbol the least threshold at each lower value's shortest window's midpoint,
found by two pointers; otherwise half the least Q(m + w(B) - level) - Q(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, PostconditionError, ZeroMassError
from .measure import (
    BesselMeasure, FuncExpr, Interval, Piece, _bounded_minimum, _run_range, _value_at, monotone_inverse,
)
from .weights import IntervalFamily, Weight

__all__ = [
    "RefMeasure",
    "mass_of",
    "superlevel_set",
    "superlevel_measure",
    "median",
    "quantile_threshold",
    "BmoReport",
    "bmo_triangle_norm",
    "weighted_bmo_norm",
    "bmo_median_norm",
    "rearrangement",
    "local_mean_oscillation",
    "median_stability_check",
    "log_mu_oscillation_endpoint_form",
]

RefMeasure = BesselMeasure | Weight

def mass_of(ref: RefMeasure, iv: Interval) -> float:
    """Mass of an interval under mu (BesselMeasure) or w dx (Weight)."""
    if isinstance(ref, BesselMeasure):
        return ref.mu(iv)
    return ref.mass(iv)


def _mass(ref: RefMeasure, lo: float, hi: float) -> float:
    """Mass of (lo, hi), 0 when it is empty."""
    return mass_of(ref, Interval(lo, hi)) if hi > lo else 0.0


def superlevel_set(f: FuncExpr, gamma: float, B: Interval) -> tuple[Interval, ...]:
    """{x in B : f(x) > gamma} as a disjoint interval union (strict >): the
    monotone runs of f on B cut at gamma (`_beyond`), however close to 0."""
    return tuple(Interval(lo, hi) for lo, hi in _beyond(f.monotone_runs(B), gamma, 1))


def superlevel_measure(f: FuncExpr, gamma: float, B: Interval, ref: RefMeasure) -> float:
    return sum(mass_of(ref, iv) for iv in superlevel_set(f, gamma, B))


def _beyond(runs: list, g: float, side: int) -> list[tuple[float, float]]:
    """The parts (lo, hi) of the span of b's monotone runs where side * (b - g)
    > 0, in order: each monotone run cut where it crosses g, each flat run (a
    constant cell or a gap) kept whole or dropped, and the parts of one piece
    that meet at a turning point joined."""
    parts: list[tuple[float, float, Piece]] = []
    for lo, hi, p, d in runs:
        if d:
            cut = monotone_inverse(p.eval, g, lo, hi, d > 0)
            lo, hi = (cut, hi) if d * side > 0 else (lo, cut)
        elif side * (p.eval(hi) - g) <= 0.0:
            continue
        if lo < hi:
            if parts and parts[-1][1] == lo and parts[-1][2] is p:
                lo = parts.pop()[0]
            parts.append((lo, hi, p))
    return [(lo, hi) for lo, hi, _ in parts]


@dataclass(frozen=True)
class _Symbol:
    """A symbol b on B under w, classified once: a step symbol carries its
    (value, w-mass) `cells`, any other symbol its `FuncExpr.monotone_runs` on
    B, and `mono` is b's piece when B is one monotone run of it."""

    B: Interval
    w: RefMeasure
    cells: list[tuple[float, float]] | None
    runs: list[tuple[float, float, Piece, int]] | None
    mono: Piece | None


def _classify(b: FuncExpr, B: Interval, w: RefMeasure) -> _Symbol:
    r = b.restrict(B)
    if r.is_piecewise_constant():
        return _Symbol(B, w, _cell_table(r, B, w), None, None)
    runs = r.monotone_runs(B)
    return _Symbol(B, w, None, runs, runs[0][2] if len(runs) == 1 and runs[0][3] else None)


def median(b: FuncExpr, B: Interval, ref: RefMeasure) -> float:
    """Infimum median of b on B: inf{ g : ref({b > g} ∩ B) <= ref(B)/2 }.

    Both defining half-mass inequalities are re-verified exactly after the
    computation (with a root-width slack for analytic symbols).
    """
    return _median(_classify(b, B, ref))


def _median(sym: _Symbol) -> float:
    total = mass_of(sym.w, sym.B)
    half = 0.5 * total
    alpha = _quantile(sym)(half)
    above, below = _side_masses(sym, alpha)
    slack = 1e-9 * total
    if above > half + slack or below > half + slack:
        raise PostconditionError(
            f"median {alpha:g} on ({sym.B.a:g}, {sym.B.b:g}) leaves masses "
            f"{above:g} above and {below:g} below, over half of {total:g}"
        )
    return alpha


def _side_masses(sym: _Symbol, alpha: float) -> tuple[float, float]:
    """(w({b > alpha}), w({b < alpha})) on B, from the cell table or the runs."""
    if sym.cells is not None:
        return tuple(sum(mass for u, mass in sym.cells if side * (u - alpha) > 0.0) for side in (1, -1))
    return tuple(sum(_mass(sym.w, *part) for part in _beyond(sym.runs, alpha, side)) for side in (1, -1))


def _quantile(sym: _Symbol):
    """The increasing rearrangement Q(m) = inf{ g : w({b > g}) <= w(B) - m } of
    b on B: from the cell table, the mass cut of one run, or else a search over
    the values, which returns the value v of a flat run (a constant cell or a
    gap, where w({b > g}) jumps) when it lands within 1e-12 (1 + |v|) of v."""
    total = mass_of(sym.w, sym.B)
    if sym.cells is not None:
        vals = sorted({v for v, _ in sym.cells})
        return lambda m: next(v for v in vals if sum(
            mass for u, mass in sym.cells if u > v) <= (total - m) * (1 + 1e-12))
    if sym.mono is not None:
        up = sym.runs[0][3] > 0
        return lambda m: _value_at(sym.mono, _cut(sym.w, sym.B.a, m if up else total - m, sym.B.b))
    lo, hi = _run_range(sym.runs)
    end, sign = (lo, 1.0) if lo > -math.inf else (hi, -1.0)  # search from a finite end
    flats = [p.eval(x) if p.atoms else 0.0 for _, x, p, d in sym.runs if not d]
    above = lambda g: sum(_mass(sym.w, *part) for part in _beyond(sym.runs, g, 1))

    def q(m: float) -> float:
        g = end + sign * monotone_inverse(
            lambda t: above(end + sign * t), total - m, 0.0, hi - lo, sign < 0)
        return next((v for v in flats if abs(g - v) <= 1e-12 * (1 + abs(v)) and above(v) <= total - m), g)

    return q


def _cut(ref: RefMeasure, a: float, target: float, hi: float) -> float:
    """x in [a, hi] with ref((a, x)) = target: a for a target <= 0, hi for one
    out of reach.  For ref = c x^e dx on R_+ (mu and every power weight) the
    mass c (x^k - a^k)/k, k = e + 1, or c log(x/a) at k = 0, inverts in closed
    form; any other measure goes through `monotone_inverse` of the mass."""
    if target <= 0.0:
        return a
    match ref:
        case BesselMeasure(lam=lam):
            c, k = 1.0, 2.0 * lam + 1.0
        case Weight(expr=FuncExpr(pieces=(Piece(lo=0.0, hi=math.inf, atoms=((c, e, 0),)),))):
            k = e + 1.0
        case _:
            return monotone_inverse(lambda x: _mass(ref, a, x), target, a, hi)
    try:
        base = a**k + k * target / c
        x = a * math.exp(target / c) if k == 0.0 else base ** (1.0 / k) if base > 0.0 else hi
    except OverflowError:
        return hi
    return min(x, hi)


def quantile_threshold(
    b: FuncExpr, c: float, B: Interval, w: RefMeasure, s: float
) -> float:
    """inf{ t >= 0 : w({x in B : |b - c| > t}) <= s * w(B) }."""
    return _threshold(_classify(b, B, w), c, s * mass_of(w, B), strict=False)


def _threshold(sym: _Symbol, c: float, level: float, strict: bool) -> float:
    """inf{ t >= 0 : w({x in B : |b - c| > t}) <= level } (< level when strict).

    A step symbol scans its cell table, with the relative slack 1e-12 (or
    -1e-14 when strict) against ties.  Otherwise the tail, the mass above
    c + t plus that below c - t, falls in t: the infimum is where it crosses.
    """
    if sym.cells is not None:
        limit = level * (1 - 1e-14) if strict else level * (1 + 1e-12)
        return _step_threshold(sym.cells, c, limit, strict)
    parts = lambda t: _beyond(sym.runs, c + t, 1) + _beyond(sym.runs, c - t, -1)
    tail = lambda t: sum(_mass(sym.w, *part) for part in parts(t))
    return monotone_inverse(tail, level, 0.0, math.inf, increasing=False)


def _centre_infimum(sym: _Symbol, frac: float, strict: bool) -> float:
    """inf over c of `_threshold` at level frac * w(B), half the shortest value
    window of mass w(B) - level: at the step centres, or half the least
    Q(m + w(B) - level) - Q(m), m in [0, level], by a scan.  The threshold is
    1-Lipschitz in c: a scan of c with spacing h encloses it in [min - h/2, min]."""
    total = mass_of(sym.w, sym.B)
    level = frac * total
    if sym.cells is not None:
        return min(_threshold(sym, c, level, strict) for c in _window_centres(sym.cells, level))
    q, need = _quantile(sym), total - level
    return 0.5 * _scan_minimum(lambda m: q(m + need) - q(m), 0.0, level, 17)


# -- piecewise-constant cell table -------------------------------------------------


def _cell_table(r: FuncExpr, B: Interval, w: RefMeasure) -> list[tuple[float, float]]:
    """(value, w-mass) of the cells of a piecewise-constant r on B
    (`FuncExpr.cells`); gaps where r has no piece carry 0."""
    return [(atoms[0][0] if atoms else 0.0, mass_of(w, Interval(lo, hi)))
            for lo, hi, atoms in r.cells(B)]


def _step_threshold(
    cells: list[tuple[float, float]], c: float, limit: float, strict: bool
) -> float:
    """Smallest t in {0} ∪ {|v - c|} with w({|b - c| > t}) <= limit (< limit
    when strict), summing the cell masses left to right.

    The tail t -> w({|b - c| > t}) is a right-continuous step function with
    jumps exactly at the cell values, so its infimum is one of these t.
    """
    devs = [(abs(v - c), mass) for v, mass in cells]
    for cand in [0.0] + sorted({d for d, _ in devs}):
        tail = sum(mass for d, mass in devs if d > cand)
        if (tail < limit) if strict else (tail <= limit):
            return cand
    return max(d for d, _ in devs)


def _window_centres(cells: list[tuple[float, float]], level: float) -> set[float]:
    """The O(n) centres among which inf_c of a step threshold at level is
    attained: by two pointers over the sorted values, the midpoints of each
    lower value's shortest window leaving mass at most level outside it, and
    of its two neighbours, which cover the ties and slack of the threshold."""
    vals = sorted({v for v, _ in cells})
    mass = [sum(m for u, m in cells if u == v) for v in vals]
    centres, j, inside, total = set(), 0, 0.0, sum(mass)
    for i, v in enumerate(vals):
        while j < len(vals) and total - inside > level:
            inside, j = inside + mass[j], j + 1
        centres.update(0.5 * (v + u) for u in vals[max(i, j - 2) : j + 1])
        inside -= mass[i]
    return centres


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class BmoReport:
    norm_estimate: float
    argmax_interval: Interval | None
    family: IntervalFamily
    flavor: str


def _report(values, family, flavor) -> BmoReport:
    best, arg = -math.inf, None
    for B, v in values:
        if v > best:
            best, arg = v, B
    return BmoReport(best, arg, family, flavor)


def triangle_oscillation(b: FuncExpr, m: BesselMeasure, B: Interval) -> float:
    """(1/mu(B)) int_B |b - b_B| dmu, by `lp_integral` at p = 1."""
    dev = b - m.average(b, B)
    return dev.lp_integral(1.0, FuncExpr.power(1.0, 2.0 * m.lam), B) / m.mu(B)


def bmo_triangle_norm(b: FuncExpr, m: BesselMeasure, family: IntervalFamily) -> BmoReport:
    vals = [(B, triangle_oscillation(b, m, B)) for B in family.intervals]
    return _report(vals, family, f"triangle(lam={m.lam:g})")


def log_mu_oscillation_endpoint_form(lam: float, B: Interval) -> float:
    """Closed form of int_a^b |log x^{2 lam} - log b^{2 lam}| x^{2 lam} dx.

    The integrand is single-signed on (a, b), and integrating by parts gives

        (2 lam) [ log(a/b) a^{2 lam + 1} / (2 lam + 1)
                  + (b^{2 lam+1} - a^{2 lam+1}) / (2 lam + 1)^2 ].
    """
    e = 2.0 * lam + 1.0
    a, bb = B.a, B.b
    first = (math.log(a / bb) * a**e / e) if a > 0.0 else 0.0
    return 2.0 * lam * (first + (bb**e - a**e) / e**2)


def p_oscillation(
    b: FuncExpr, w: Weight, p: float, m: BesselMeasure, B: Interval
) -> float:
    """((1/w(B)) int_B |b - b_B|^p w dx)^{1/p} with the mu-average center."""
    wB = w.mass(B)
    if wB <= 0.0:
        raise ZeroMassError(f"weight has no mass on ({B.a:g}, {B.b:g})")
    dev = b - m.average(b, B)
    return (dev.lp_integral(p, w.expr, B) / wB) ** (1.0 / p)


def weighted_bmo_norm(
    b: FuncExpr, w: Weight, p: float, m: BesselMeasure, family: IntervalFamily
) -> BmoReport:
    vals = [(B, p_oscillation(b, w, p, m, B)) for B in family.intervals]
    return _report(vals, family, f"weighted-L{p:g}({w.description})")


def median_oscillation(b: FuncExpr, w: RefMeasure, s: float, B: Interval) -> float:
    """inf over c of the s-quantile threshold of |b - c| on B (`_centre_infimum`)."""
    if not (0.0 < s <= 0.5):
        raise ValueError("s must lie in (0, 1/2]")
    return _centre_infimum(_classify(b, B, w), s, strict=False)


def _scan_minimum(f, lo: float, hi: float, samples: int) -> float:
    """Smallest value of f found on [lo, hi].

    Unimodality is not assumed: a scan of `samples` points including both
    ends, then the bounded minimiser `_bounded_minimum` on the bracket around
    the best of them, and the minimum over all of these.  The minimiser works
    in the offset from the best point, because its built-in tolerance
    sqrt(eps) |x| would stop it 1e-8 short of a kinked minimum.
    """
    xs = np.linspace(lo, hi, samples)
    coarse = [f(float(x)) for x in xs]
    i = int(np.argmin(coarse))
    x0 = float(xs[i])
    refined = _bounded_minimum(
        lambda v: f(x0 + v), float(xs[max(0, i - 1)]) - x0, float(xs[min(samples - 1, i + 1)]) - x0,
        1e-12 * max(abs(lo), abs(hi)),
    )
    return min(min(coarse), float(refined))


def bmo_median_norm(
    b: FuncExpr, w: RefMeasure, s: float, family: IntervalFamily
) -> BmoReport:
    vals = [(B, median_oscillation(b, w, s, B)) for B in family.intervals]
    label = w.description if isinstance(w, Weight) else f"mu(lam={w.lam:g})"
    return _report(vals, family, f"median(s={s:g},{label})")


# -- rearrangement and local mean oscillation --------------------------------------


def rearrangement(b: FuncExpr, w: RefMeasure, t: float, hull: Interval | None = None) -> float:
    """b*(t) = inf{ gamma > 0 : w({|b| > gamma}) < t } (strict inequality).

    The superlevel mass is computed on the support hull of b (pass `hull` to
    widen); b must be compactly supported or t below the total mass.
    """
    if t <= 0.0:
        raise ValueError("rearrangement argument must be positive")
    H = hull or b.support_bounds()
    if H is None:
        return 0.0
    return _threshold(_classify(b, H, w), 0.0, t, strict=True)


def local_mean_oscillation(
    b: FuncExpr, B: Interval, lambda_frac: float, w: RefMeasure
) -> tuple[float, float]:
    """(inf over c of ((b-c) chi_B)*(lambda_frac w(B)),
        the same with c = the infimum median).

    The first is at most the second, which is at most twice the first.  Off
    step symbols the tail is continuous but at flat runs, and the infimum is
    the shortest-window form of the median oscillation at s = lambda_frac.
    """
    sym = _classify(b, B, w)
    _, a_med = _median_threshold(sym, lambda_frac)
    return min(_centre_infimum(sym, lambda_frac, True), a_med), a_med


def _median_threshold(sym: _Symbol, lambda_frac: float) -> tuple[float, float]:
    """(alpha, a_med): the infimum median of a classified symbol, and the
    strict lambda_frac tail threshold of |b - alpha|."""
    if not (0.0 < lambda_frac < 1.0):
        raise ValueError("lambda_frac must lie in (0,1)")
    alpha = _median(sym)
    return alpha, _threshold(sym, alpha, lambda_frac * mass_of(sym.w, sym.B), strict=True)


def median_stability_check(
    b: FuncExpr,
    B: Interval,
    eps: float,
    lambda_frac: float,
    w: RefMeasure,
) -> tuple[float, float]:
    """(|alpha(B_eps) - alpha(B)|, a_{lambda_frac}(b; B)) where B_eps extends
    the right endpoint (falling back to contraction for shrink targets) until
    w(B_eps) = (1 +/- eps) w(B)."""
    x = _cut(w, B.a, (1.0 + eps) * mass_of(w, B), math.inf)
    if math.isinf(x):
        raise ConstructionError("cannot reach the enlarged mass target")
    alpha, a_med = _median_threshold(_classify(b, B, w), lambda_frac)
    return abs(median(b, Interval(B.a, x), w) - alpha), a_med
