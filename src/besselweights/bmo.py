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

Superlevel sets of family functions are exact interval unions (sign
splitting), so all set measures below are closed-form, not sampled.

The median oscillation has two exact scans.  For a symbol that is one
monotone piece on B, {|b - c| <= t} ∩ B is a window [x1, x2], so the
quantity is half the smallest spread |b(x2) - b(x1)| over windows of
w-mass (1 - s) w(B): a scalar minimisation over x1, with x2 from the
closed-form mass.  For a piecewise-constant symbol, B is cut once into a
table of (value, w-mass) cells, and every candidate centre c is scanned
against that table; the rearrangement and the local mean oscillation of
step symbols use the same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConstructionError, PostconditionError, ZeroMassError
from .measure import BesselMeasure, FuncExpr, Interval, dmu
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
    "VmoDefect",
    "vmo_defect",
    "john_nirenberg_profile",
    "log_mu_oscillation_endpoint_form",
]

RefMeasure = BesselMeasure | Weight


def mass_of(ref: RefMeasure, iv: Interval) -> float:
    """Mass of an interval under mu (BesselMeasure) or w dx (Weight)."""
    if isinstance(ref, BesselMeasure):
        return ref.mu(iv)
    return ref.mass(iv)


def superlevel_set(f: FuncExpr, gamma: float, B: Interval) -> tuple[Interval, ...]:
    """{x in B : f(x) > gamma} as a disjoint interval union (strict >)."""
    regions = (f - gamma).sign_regions(B)
    return tuple(iv for iv, sgn in regions if sgn > 0)


def superlevel_measure(f: FuncExpr, gamma: float, B: Interval, ref: RefMeasure) -> float:
    return sum(mass_of(ref, iv) for iv in superlevel_set(f, gamma, B))


def _value_range(f: FuncExpr, B: Interval, samples: int = 65) -> tuple[float, float]:
    lo = B.a if B.a > 0.0 else B.b * 1e-12
    xs = np.geomspace(lo, B.b * (1 - 1e-12), samples)
    vals = [f(float(x)) for x in xs]
    return min(vals), max(vals)


# -- monotone single-piece fast path ----------------------------------------------
#
# Most analytic symbols in practice (log x^{2 lam}, single powers) restrict to
# one monotone piece per interval; their level sets then come from a scalar
# inverse instead of a sign-region scan, which is the difference between
# milliseconds and minutes in the quantile searches below.


def _monotone_piece(g: FuncExpr, B: Interval, samples: int = 33):
    """(piece, increasing) when g restricted to B is a single strictly
    monotone piece covering B; None otherwise."""
    r = g.restrict(B)
    if len(r.pieces) != 1:
        return None
    p = r.pieces[0]
    if p.lo > B.a + 1e-15 * B.b or p.hi < B.b * (1 - 1e-15):
        return None
    lo = B.a if B.a > 0.0 else B.b * 1e-12
    xs = np.geomspace(lo, B.b * (1 - 1e-14), samples)
    vals = FuncExpr._piece_eval_grid(p, xs)
    diffs = np.diff(vals)
    if np.all(diffs > 0):
        return p, True
    if np.all(diffs < 0):
        return p, False
    return None


def _monotone_level_cut(p, B: Interval, y: float, increasing: bool) -> float:
    """x in [B.a, B.b] where the monotone piece crosses level y (clipped)."""
    from scipy.optimize import brentq

    lo = B.a if B.a > 0.0 else B.b * 1e-15
    va, vb = p.eval(lo), p.eval(B.b)
    lo_val, hi_val = (va, vb) if increasing else (vb, va)
    if y <= lo_val:
        return lo if increasing else B.b
    if y >= hi_val:
        return B.b if increasing else lo
    return float(brentq(lambda x: p.eval(x) - y, lo, B.b, rtol=1e-14))


def _monotone_two_sided_tail(
    g: FuncExpr, B: Interval, gamma: float, ref: RefMeasure
) -> float | None:
    """ref({x in B : |g(x)| > gamma}) when g is single-piece monotone on B."""
    mono = _monotone_piece(g, B)
    if mono is None:
        return None
    p, inc = mono
    if gamma < 0.0:
        return mass_of(ref, B)
    a_eff = B.a if B.a > 0.0 else B.b * 1e-15
    hi_cut = _monotone_level_cut(p, B, gamma, inc)     # crossing of g = +gamma
    lo_cut = _monotone_level_cut(p, B, -gamma, inc)    # crossing of g = -gamma
    total = 0.0
    if inc:
        # {g > gamma} = (hi_cut, b); {g < -gamma} = (a, lo_cut)
        if hi_cut < B.b * (1 - 1e-15):
            total += mass_of(ref, Interval(hi_cut, B.b))
        if lo_cut > a_eff * (1 + 1e-12):
            total += mass_of(ref, Interval(B.a, lo_cut))
    else:
        # {g > gamma} = (a, hi_cut); {g < -gamma} = (lo_cut, b)
        if hi_cut > a_eff * (1 + 1e-12):
            total += mass_of(ref, Interval(B.a, hi_cut))
        if lo_cut < B.b * (1 - 1e-15):
            total += mass_of(ref, Interval(lo_cut, B.b))
    return total


def median(b: FuncExpr, B: Interval, ref: RefMeasure) -> float:
    """Infimum median of b on B: inf{ g : ref({b > g} ∩ B) <= ref(B)/2 }.

    Both defining half-mass inequalities are re-verified exactly after the
    computation (with a bisection-width slack for analytic symbols).
    """
    total = mass_of(ref, B)
    half = 0.5 * total
    mono = _monotone_piece(b, B)
    if mono is not None:
        # measure-bisection: alpha = b at the point splitting B into ref-halves
        p, inc = mono
        lo_x, hi_x = (B.a if B.a > 0.0 else B.b * 1e-15), B.b
        for _ in range(200):
            mid = math.sqrt(lo_x * hi_x) if lo_x > 0 else 0.5 * (lo_x + hi_x)
            if mass_of(ref, Interval(B.a, mid)) < half:
                lo_x = mid
            else:
                hi_x = mid
            if hi_x - lo_x <= 1e-14 * hi_x:
                break
        cut = 0.5 * (lo_x + hi_x)
        alpha = p.eval(cut)
    elif b.restrict(B).is_piecewise_constant():
        vals = sorted(
            {p.atoms[0][0] for p in b.restrict(B).pieces}
            | ({0.0} if _has_gap(b, B) else set())
        )
        alpha = None
        for v in vals:
            if superlevel_measure(b, v, B, ref) <= half * (1 + 1e-12):
                alpha = v
                break
        if alpha is None:  # pragma: no cover - max value always qualifies
            alpha = vals[-1]
    else:
        lo, hi = _value_range(b, B)
        if superlevel_measure(b, lo, B, ref) <= half:
            alpha = lo
        else:
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if superlevel_measure(b, mid, B, ref) <= half:
                    hi = mid
                else:
                    lo = mid
                if hi - lo <= 1e-13 * max(1.0, abs(hi)):
                    break
            alpha = hi
    above = superlevel_measure(b, alpha, B, ref)
    below = superlevel_measure(-b, -alpha, B, ref)  # mass of {b < alpha}
    slack = 1e-9 * total
    if above > half + slack or below > half + slack:
        raise PostconditionError(
            f"median {alpha:g} on ({B.a:g}, {B.b:g}) leaves masses "
            f"{above:g} above and {below:g} below, over half of {total:g}"
        )
    return alpha


def _has_gap(f: FuncExpr, B: Interval) -> bool:
    """True when the restriction leaves uncovered gaps (where f = 0)."""
    covered = sum(min(p.hi, B.b) - max(p.lo, B.a) for p in f.restrict(B).pieces)
    return covered < B.length * (1 - 1e-12)


def quantile_threshold(
    b: FuncExpr, c: float, B: Interval, w: RefMeasure, s: float
) -> float:
    """inf{ t >= 0 : w({x in B : |b - c| > t}) <= s * w(B) }."""
    total = mass_of(w, B)
    target = s * total
    if b.restrict(B).is_piecewise_constant():
        return _step_threshold(_cell_table(b, B, w), c, target * (1 + 1e-12))
    g = b - c
    fast_tail = _monotone_two_sided_tail(g, B, 0.0, w)
    if fast_tail is not None:
        if fast_tail <= target * (1 + 1e-12):
            return 0.0
        lo_t, hi_t = 0.0, max(abs(v) for v in _value_range(g, B)) + 1e-300
        for _ in range(80):
            mid = 0.5 * (lo_t + hi_t)
            if _monotone_two_sided_tail(g, B, mid, w) <= target * (1 + 1e-12):
                hi_t = mid
            else:
                lo_t = mid
            if hi_t - lo_t <= 1e-11 * max(1.0, hi_t):
                break
        return hi_t
    dev = g.restrict(B).abs()
    lo, hi = 0.0, max(_value_range(dev, B)[1], 1e-300)
    if superlevel_measure(dev, lo, B, w) <= target:
        return 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if superlevel_measure(dev, mid, B, w) <= target * (1 + 1e-12):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return hi


# -- piecewise-constant cell table -------------------------------------------------


def _cell_table(b: FuncExpr, B: Interval, w: RefMeasure) -> list[tuple[float, float]]:
    """(value, w-mass) of the cells of B cut at the breakpoints of a
    piecewise-constant b, left to right; gaps where b has no piece carry 0."""
    cells, x = [], B.a
    for p in b.restrict(B).pieces:
        if p.lo > x:
            cells.append((0.0, mass_of(w, Interval(x, p.lo))))
        cells.append((p.atoms[0][0], mass_of(w, Interval(p.lo, p.hi))))
        x = p.hi
    if x < B.b:
        cells.append((0.0, mass_of(w, Interval(x, B.b))))
    return cells


def _step_threshold(
    cells: list[tuple[float, float]], c: float, limit: float, strict: bool = False
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
    """(1/mu(B)) int_B |b - b_B| dmu, exact via sign splitting."""
    bB = m.average(b, B)
    return m.average((b - bB).restrict(B).abs(), B)


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
    bB = m.average(b, B)
    dev = (b - bB).restrict(B).abs()
    return (dev.lp_integral(p, w.expr, B) / wB) ** (1.0 / p)


def weighted_bmo_norm(
    b: FuncExpr, w: Weight, p: float, m: BesselMeasure, family: IntervalFamily
) -> BmoReport:
    vals = [(B, p_oscillation(b, w, p, m, B)) for B in family.intervals]
    return _report(vals, family, f"weighted-L{p:g}({w.description})")


def median_oscillation(
    b: FuncExpr, w: RefMeasure, s: float, B: Interval, c_samples: int = 64
) -> float:
    """inf over c of the s-quantile threshold of |b - c| on B.

    Piecewise-constant symbols: one (value, w-mass) cell table of B, scanned
    for every cell value and midpoint of two values as the centre c.
    One monotone piece on B: the window scan `_window_oscillation`.
    Otherwise: a coarse grid over c plus golden-section refinement.
    """
    if not (0.0 < s <= 0.5):
        raise ValueError("s must lie in (0, 1/2]")
    if b.restrict(B).is_piecewise_constant():
        cells = _cell_table(b, B, w)
        limit = s * mass_of(w, B) * (1 + 1e-12)
        return min(_step_threshold(cells, c, limit) for c in _step_centres(cells))
    mono = _monotone_piece(b, B)
    if mono is not None:
        return _window_oscillation(mono[0], B, w, s)
    lo, hi = _value_range(b, B)
    if hi - lo <= 1e-14 * max(1.0, abs(hi)):
        return 0.0
    objective = lambda c: quantile_threshold(b, float(c), B, w, s)
    grid = np.linspace(lo, hi, c_samples)
    coarse = [objective(c) for c in grid]
    i_best = int(np.argmin(coarse))
    a = grid[max(0, i_best - 1)]
    bb = grid[min(len(grid) - 1, i_best + 1)]
    phi_ratio = (math.sqrt(5) - 1) / 2
    x1 = bb - phi_ratio * (bb - a)
    x2 = a + phi_ratio * (bb - a)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(60):
        if f1 <= f2:
            bb, x2, f2 = x2, x1, f1
            x1 = bb - phi_ratio * (bb - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi_ratio * (bb - a)
            f2 = objective(x2)
        if bb - a <= 1e-9 * max(1.0, abs(bb)):
            break
    return min(coarse[i_best], f1, f2)


def _window_oscillation(p, B: Interval, w: RefMeasure, s: float) -> float:
    """Half the smallest spread |p(x2) - p(x1)| of the monotone piece p over
    windows [x1, x2] in B of w-mass (1 - s) w(B), x1 in [a_eff, x1max].

    Unimodality in x1 is not proven, so both ends and a coarse scan are
    evaluated, the best bracket is refined by a bounded minimiser, and the
    minimum over all of them is returned.
    """
    from scipy.optimize import brentq, minimize_scalar

    a_eff = B.a if B.a > 0.0 else B.b * 1e-15
    lo, hi = sorted((p.eval(a_eff), p.eval(B.b)))
    if hi - lo <= 1e-14 * max(1.0, abs(hi)):
        return 0.0
    total = mass_of(w, B)
    need = (1.0 - s) * total
    cum = lambda x: mass_of(w, Interval(B.a, x)) if x > B.a else 0.0

    def level_point(level: float, x_lo: float) -> float:
        """x in [x_lo, B.b] with w((B.a, x)) = level, clipped to the ends."""
        if cum(x_lo) >= level:
            return x_lo
        if total <= level:
            return B.b
        # relative tolerance only: an absolute one would swamp small x
        return brentq(lambda x: cum(x) - level, x_lo, B.b, xtol=1e-300)

    def spread(x1: float) -> float:
        return abs(p.eval(level_point(cum(x1) + need, x1)) - p.eval(x1))

    x1max = level_point(total - need, a_eff)
    if x1max <= a_eff:
        return 0.5 * spread(a_eff)
    xs = np.linspace(a_eff, x1max, 17)
    coarse = [spread(float(x)) for x in xs]
    i = int(np.argmin(coarse))
    bracket = (float(xs[max(0, i - 1)]), float(xs[min(len(xs) - 1, i + 1)]))
    refined = minimize_scalar(
        spread, bounds=bracket, method="bounded", options={"xatol": 1e-12 * x1max}
    )
    return 0.5 * min(min(coarse), float(refined.fun))


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
    if _monotone_piece(b, H) is not None:
        dist = lambda g: _monotone_two_sided_tail(b, H, g, w)
        hi = max(abs(v) for v in _value_range(b, H)) + 1e-300
    elif b.restrict(H).is_piecewise_constant():
        return _step_threshold(_cell_table(b, H, w), 0.0, t * (1 - 1e-14), strict=True)
    else:
        dev = b.restrict(H).abs()
        dist = lambda g: superlevel_measure(dev, g, H, w)
        hi = max(_value_range(dev, H)[1], 1e-300)
    if dist(0.0) < t * (1 - 1e-14):
        return 0.0
    if dist(hi) >= t:
        return hi
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if dist(mid) < t * (1 - 1e-14):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return hi


def local_mean_oscillation(
    b: FuncExpr, B: Interval, lambda_frac: float, w: RefMeasure, c_samples: int = 64
) -> tuple[float, float]:
    """(inf over c of ((b-c) chi_B)*(lambda_frac w(B)),
        the same with c = the infimum median).

    The first is at most the second, which is at most twice the first.
    """
    if not (0.0 < lambda_frac < 1.0):
        raise ValueError("lambda_frac must lie in (0,1)")
    t_arg = lambda_frac * mass_of(w, B)
    alpha = median(b, B, w)
    if b.restrict(B).is_piecewise_constant():
        cells = _cell_table(b, B, w)
        reference = lambda c: _step_threshold(cells, c, t_arg * (1 - 1e-14), strict=True)
        a_check = min(reference(c) for c in _step_centres(cells) | {alpha})
        return a_check, reference(alpha)
    reference = lambda c: rearrangement((b - c).restrict(B), w, t_arg, hull=B)
    lo, hi = _value_range(b, B)
    grid = list(np.linspace(lo, hi, c_samples)) + [alpha]
    a_check = min(reference(float(c)) for c in grid)
    return a_check, reference(alpha)


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
    target = (1.0 + eps) * mass_of(w, B)
    B_eps = _resize_to_mass(B, target, w)
    lhs = abs(median(b, B_eps, w) - median(b, B, w))
    _, a_med = local_mean_oscillation(b, B, lambda_frac, w)
    return lhs, a_med


def _resize_to_mass(B: Interval, target: float, w: RefMeasure) -> Interval:
    current = mass_of(w, B)
    if target >= current:
        hi = B.b
        for _ in range(200):
            hi = B.a + (hi - B.a) * 2.0
            if mass_of(w, Interval(B.a, hi)) >= target:
                break
        else:
            raise ConstructionError("cannot reach the enlarged mass target")
        lo = B.b
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if mass_of(w, Interval(B.a, mid)) >= target:
                hi = mid
            else:
                lo = mid
        return Interval(B.a, hi)
    lo, hi = B.a, B.b
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mass_of(w, Interval(B.a, mid)) >= target:
            hi = mid
        else:
            lo = mid
    return Interval(B.a, hi)


# -- VMO defect -----------------------------------------------------------------


@dataclass(frozen=True)
class VmoDefect:
    small_scale: dict
    large_scale: dict
    far_field: dict


def vmo_defect(
    b: FuncExpr,
    m: BesselMeasure,
    scales: Sequence[float],
    far_cutoffs: Sequence[float],
    domain_hint: float = 16.0,
    windows: int = 48,
) -> VmoDefect:
    """Max triangle oscillation over covering subfamilies: per length r over
    windows of that length, and per cutoff a over intervals starting past a."""
    small, large, far = {}, {}, {}
    for r in scales:
        starts = [0.0] + list(np.geomspace(r * 1e-3, domain_hint, windows))
        vals = [
            triangle_oscillation(b, m, Interval(s, s + r)) for s in starts
        ]
        entry = max(vals)
        (small if r <= 1.0 else large)[r] = entry
    for a in far_cutoffs:
        vals = []
        for ln in np.geomspace(a * 1e-2, a * 10, windows):
            vals.append(triangle_oscillation(b, m, Interval(a, a + float(ln))))
        far[a] = max(vals)
    return VmoDefect(small, large, far)


def john_nirenberg_profile(
    b: FuncExpr, B: Interval, m: BesselMeasure, gamma_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """(gamma, mu({x in B : |b - b_B| > gamma}) / mu(B)) rows, exact sets."""
    bB = m.average(b, B)
    dev = (b - bB).restrict(B).abs()
    muB = m.mu(B)
    return [(g, superlevel_measure(dev, g, B, m) / muB) for g in gamma_grid]
