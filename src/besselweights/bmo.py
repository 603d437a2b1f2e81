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

Each public call classifies its (symbol, interval, measure) once.  A
piecewise-constant symbol cuts B once into a table of (value, w-mass) cells:
its median, tail thresholds, rearrangement, median oscillation and local
mean oscillation are all scans of that table.  Any other symbol is cut once
into its monotone runs on B (`FuncExpr.monotone_runs`), and each level set
{b > g} is every run cut at g by `measure.monotone_inverse`, the one scalar
inverse.  When B is one run, the median is b at the point that halves w(B),
and the median oscillation is half the smallest spread |b(x2) - b(x1)| over
windows of w-mass (1 - s) w(B), a scalar minimisation over x1.  Otherwise
the median is a scalar inverse over the value range, and the infima over
the centre c are a scan around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, PostconditionError, ZeroMassError
from .measure import BesselMeasure, FuncExpr, Interval, Piece, monotone_inverse
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

_C_SAMPLES = 64  # centres scanned for a symbol that is neither step nor monotone


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
    """b on B under w, classified once: a step symbol carries its (value,
    w-mass) `cells`, any other symbol its `FuncExpr.monotone_runs` on B, and
    `mono` is b's piece when B is one monotone run of it."""

    b: FuncExpr
    B: Interval
    w: RefMeasure
    cells: list[tuple[float, float]] | None
    runs: list[tuple[float, float, Piece, int]] | None
    mono: Piece | None


def _classify(b: FuncExpr, B: Interval, w: RefMeasure) -> _Symbol:
    r = b.restrict(B)
    if r.is_piecewise_constant():
        return _Symbol(b, B, w, _cell_table(r, B, w), None, None)
    runs = r.monotone_runs(B)
    return _Symbol(b, B, w, None, runs, runs[0][2] if len(runs) == 1 and runs[0][3] else None)


def median(b: FuncExpr, B: Interval, ref: RefMeasure) -> float:
    """Infimum median of b on B: inf{ g : ref({b > g} ∩ B) <= ref(B)/2 }.

    Both defining half-mass inequalities are re-verified exactly after the
    computation (with a root-width slack for analytic symbols).
    """
    return _median(_classify(b, B, ref))


def _median(sym: _Symbol) -> float:
    b, B, ref = sym.b, sym.B, sym.w
    total = mass_of(ref, B)
    half = 0.5 * total
    if sym.cells is not None:
        # ref({b > g}) is a step function of g with jumps at the cell values
        alpha = next(
            v for v in sorted({v for v, _ in sym.cells})
            if sum(mass for u, mass in sym.cells if u > v) <= half * (1 + 1e-12)
        )
    elif sym.mono is not None:
        # alpha = b at the point splitting B into two ref-halves
        cut = monotone_inverse(lambda x: _mass(ref, B.a, x), half, B.a, B.b)
        alpha = sym.mono.eval(cut)
    else:
        # ref({b > g}) falls to 0 over the value range: search from a finite end
        lo, hi = b.value_range(B)
        above = lambda g: sum(_mass(ref, *part) for part in _beyond(sym.runs, g, 1))
        if lo > -math.inf:
            alpha = lo + monotone_inverse(lambda d: above(lo + d), half, 0.0, hi - lo, False)
        else:
            alpha = hi - monotone_inverse(lambda d: above(hi - d), half, 0.0, math.inf)
    if sym.cells is not None:
        above = sum(mass for u, mass in sym.cells if u > alpha)
        below = sum(mass for u, mass in sym.cells if u < alpha)
    else:
        above = superlevel_measure(b, alpha, B, ref)
        below = superlevel_measure(-b, -alpha, B, ref)  # mass of {b < alpha}
    slack = 1e-9 * total
    if above > half + slack or below > half + slack:
        raise PostconditionError(
            f"median {alpha:g} on ({B.a:g}, {B.b:g}) leaves masses "
            f"{above:g} above and {below:g} below, over half of {total:g}"
        )
    return alpha


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


def _centre_infimum(sym: _Symbol, frac: float, strict: bool, alpha: float | None = None) -> float:
    """inf over c of `_threshold` at level frac * w(B): a scan of the step
    centres, the window scan, or for a generic symbol a scan of [alpha - T,
    alpha + T], T the threshold at the median alpha; the threshold is
    1-Lipschitz in c and, for frac <= 1/2, at least |c - alpha|."""
    if sym.mono is not None:
        return _window_oscillation(sym.mono, sym.B, sym.w, frac)
    level = frac * mass_of(sym.w, sym.B)
    at = lambda c: _threshold(sym, c, level, strict)
    if sym.cells is not None:
        return min(map(at, _step_centres(sym.cells)))
    if alpha is None:
        alpha = _median(sym)
    t = at(alpha)
    return min(t, _scan_minimum(at, alpha - t, alpha + t, _C_SAMPLES)) if t > 0.0 else 0.0


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


def _step_centres(cells: list[tuple[float, float]]) -> set[float]:
    """Cell values and their pairwise midpoints: the centres c at which
    inf_c of a step-symbol tail threshold is attained."""
    vals = sorted({v for v, _ in cells})
    return {0.5 * (v1 + v2) for v1 in vals for v2 in vals}


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
    ends, then a bounded minimiser on the bracket around the best of them,
    and the minimum over all of these.  The minimiser works in the offset
    from the best point, because its built-in tolerance sqrt(eps) |x| would
    stop it 1e-8 short of a kinked minimum.
    """
    from scipy.optimize import minimize_scalar

    xs = np.linspace(lo, hi, samples)
    coarse = [f(float(x)) for x in xs]
    i = int(np.argmin(coarse))
    x0 = float(xs[i])
    bracket = (float(xs[max(0, i - 1)]) - x0, float(xs[min(samples - 1, i + 1)]) - x0)
    refined = minimize_scalar(
        lambda v: f(x0 + v), bounds=bracket, method="bounded",
        options={"xatol": 1e-12 * max(abs(lo), abs(hi))},
    )
    return min(min(coarse), float(refined.fun))


def _window_oscillation(p, B: Interval, w: RefMeasure, s: float) -> float:
    """Half the smallest spread |p(x2) - p(x1)| of the monotone piece p over
    windows [x1, x2] in B of w-mass (1 - s) w(B), x1 in [B.a, x1max]."""
    total = mass_of(w, B)
    need = (1.0 - s) * total
    cum = lambda x: _mass(w, B.a, x)

    def spread(x1: float) -> float:
        if x1 == 0.0:  # p(0+) may be infinite; the minimiser nears 0 from inside
            return math.inf
        x2 = monotone_inverse(cum, cum(x1) + need, x1, B.b)
        return abs(p.eval(x2) - p.eval(x1))

    x1max = monotone_inverse(cum, total - need, B.a, B.b)
    return 0.5 * _scan_minimum(spread, B.a, x1max, 17)


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

    The first is at most the second, which is at most twice the first.  For
    one monotone piece the tail is continuous, so the infimum is the window
    form of the median oscillation at s = lambda_frac.
    """
    sym = _classify(b, B, w)
    alpha, a_med = _median_threshold(sym, lambda_frac)
    return min(_centre_infimum(sym, lambda_frac, True, alpha), a_med), a_med


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
    B_eps = _resize_to_mass(B, (1.0 + eps) * mass_of(w, B), w)
    alpha, a_med = _median_threshold(_classify(b, B, w), lambda_frac)
    return abs(median(b, B_eps, w) - alpha), a_med


def _resize_to_mass(B: Interval, target: float, w: RefMeasure) -> Interval:
    x = monotone_inverse(lambda x: _mass(w, B.a, x), target, B.a, math.inf)
    if math.isinf(x):
        raise ConstructionError("cannot reach the enlarged mass target")
    return Interval(B.a, x)
