"""Equivalence battery for the oscillation-norm flavors.

Six per-family norm estimates are computed for each test symbol: the
mu-oscillation (triangle) norm, weighted L^p oscillation and median
oscillation against an in-class power weight, the plain Lebesgue flavors of
both, and the L^1(dx) mean oscillation.  All pairwise ratios must stay inside
one recorded band.

On top of the band, three exact one-sided inequalities run on a seeded
per-interval suite:

    s^{1/p} * median-oscillation <= p-oscillation            (Chebyshev),
    check-oscillation <= median-anchored <= 2 * check,        (fractions <= 1/2),
    |median(B_eps) - median(B)| <= median-anchored(B)          (fraction <= (1-eps)/2),

plus the per-interval reverse embedding: triangle-oscillation is controlled
by [w]^{1/p} times the weighted p-oscillation.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ..bmo import (
    bmo_median_norm,
    bmo_triangle_norm,
    local_mean_oscillation,
    median_oscillation,
    median_stability_check,
    p_oscillation,
    triangle_oscillation,
    weighted_bmo_norm,
)
from ..measure import BesselMeasure, FuncExpr, Interval
from ..weights import IntervalFamily, TildeAp, Weight, weight_constant
from .config import ScenarioConfig
from .csvio import write_csv
from .verdict import Verdict


def test_symbols(lam: float) -> list[tuple[str, FuncExpr]]:
    saw_breaks = [0.25 * k for k in range(1, 14)]
    saw_vals = [(-1.0) ** k * (1.0 + 0.1 * k) for k in range(len(saw_breaks) - 1)]
    indsum = (
        FuncExpr.indicator(Interval(0.5, 1.0))
        + FuncExpr.indicator(Interval(0.75, 2.0), 2.0)
        + FuncExpr.indicator(Interval(1.5, 3.0), -1.0)
    )
    return [
        ("log-density", FuncExpr.log_of_mu_density(lam)),
        ("sawtooth", FuncExpr.piecewise_constant(saw_breaks, saw_vals)),
        ("indicator-sum", indsum),
    ]


def run_bmo_equivalence(cfg: ScenarioConfig) -> Verdict:
    verdict = Verdict(cfg.name)
    lam = cfg.get_float("lam")
    p = cfg.get_float("p")
    s = cfg.get_float("s")
    alpha = cfg.get_float("alpha")
    band = cfg.get_float("ratio_band")
    n_cases = cfg.get_count("n_cases")
    cfg.require("lam", lam > 0.0, "be > 0")
    cfg.require("p", p > 1.0, "be > 1")
    cfg.require("s", 0.0 < s <= 0.5, "lie in (0, 1/2]")

    m = BesselMeasure(lam)
    w = Weight.power(alpha)
    one = Weight.one()
    fam = IntervalFamily.random(16, seed=cfg.seed, lo_exp=-2.0, hi_exp=1.0) | IntervalFamily(
        "anchors", tuple(Interval(2.0**-j, 2.0) for j in range(1, 6))
    )

    rows = []
    norms = []
    worst_band = 0.0
    for name, b in test_symbols(lam):
        flavors = {
            "triangle": bmo_triangle_norm(b, m, fam).norm_estimate,
            f"weighted-L{p:g}(w)": weighted_bmo_norm(b, w, p, m, fam).norm_estimate,
            f"median(w,s={s:g})": bmo_median_norm(b, w, s, fam).norm_estimate,
            "mean-osc(dx)": weighted_bmo_norm(b, one, 1.0, m, fam).norm_estimate,
            f"L{p:g}(dx)": weighted_bmo_norm(b, one, p, m, fam).norm_estimate,
            f"median(dx,s={s:g})": bmo_median_norm(b, one, s, fam).norm_estimate,
        }
        vals = [v for v in flavors.values() if v > 0]
        ratio = max(vals) / min(vals)
        worst_band = max(worst_band, ratio)
        rows.append((name, *flavors.values(), ratio))
        norms.append(flavors)
    verdict.add(
        "six-flavor ratio band",
        worst_band, "<=", band,
        note="max pairwise ratio of family norm estimates across all flavors "
        "and test symbols stays inside the recorded band",
    )

    # norm-level one-sided bound: s^{1/p} median <= weighted-Lp, both flavors
    ok_norm_level = True
    for flavors in norms:
        lhsw = s ** (1.0 / p) * flavors[f"median(w,s={s:g})"]
        rhsw = flavors[f"weighted-L{p:g}(w)"]
        lhs1 = s ** (1.0 / p) * flavors[f"median(dx,s={s:g})"]
        rhs1 = flavors[f"L{p:g}(dx)"]
        ok_norm_level &= lhsw <= rhsw * (1 + 1e-9) and lhs1 <= rhs1 * (1 + 1e-9)
    verdict.add(
        "norm-level quantile bound",
        float(ok_norm_level), "==", 1.0,
        note="s^{1/p} * median norm <= weighted p-norm for every test symbol",
    )

    # per-interval reverse embedding via the weight constant
    cw = weight_constant(w, TildeAp(p, lam - 0.5), IntervalFamily.standard(10, seed=cfg.seed))
    worst_rev = math.inf if cw.divergent else 0.0
    b = FuncExpr.log_of_mu_density(lam)
    for B in fam.intervals:
        lhs = triangle_oscillation(b, m, B)
        rhs = cw.value ** (1.0 / p) * p_oscillation(b, w, p, m, B)
        worst_rev = max(worst_rev, lhs / rhs if rhs > 0 else math.inf if lhs > 0 else 0.0)
    verdict.add(
        "per-interval reverse embedding",
        worst_rev, "<=", 1 + 1e-9,  # the slack of the per-interval test; prints bound=1
        note="triangle-oscillation <= [w]^{1/p} * weighted p-oscillation on "
        "every family interval",
    )

    # seeded per-interval suite of the three exact inequalities
    rng = np.random.default_rng(cfg.seed)
    fails = {"quantile": 0, "sandwich": 0, "stability": 0}
    for _ in range(n_cases):
        k = int(rng.integers(3, 6))
        pts = np.sort(rng.uniform(0.1, 4.0, size=k + 1))
        while np.min(np.diff(pts)) < 1e-3:
            pts = np.sort(rng.uniform(0.1, 4.0, size=k + 1))
        vals = list(rng.uniform(-2.0, 2.0, size=k))
        bb = FuncExpr.piecewise_constant(list(pts), vals)
        B = Interval(float(pts[0]), float(pts[-1]))
        ww = w if rng.uniform() < 0.5 else one
        pp = float(rng.uniform(1.0, 3.0))
        ss = float(rng.uniform(0.05, 0.5))
        med = median_oscillation(bb, ww, ss, B)
        posc = p_oscillation(bb, ww, pp, m, B)
        if ss ** (1.0 / pp) * med > posc * (1 + 1e-9):
            fails["quantile"] += 1
        lam_frac = float(rng.uniform(0.05, 0.5))
        a_check, a_med = local_mean_oscillation(bb, B, lam_frac, ww)
        if not (a_check <= a_med * (1 + 1e-9) and a_med <= 2 * a_check * (1 + 1e-9) + 1e-12):
            fails["sandwich"] += 1
        eps = float(rng.uniform(0.01, 0.4))
        lhs, rhs = median_stability_check(bb, B, eps, (1 - eps) / 2 - 1e-9, ww)
        if lhs > rhs * (1 + 1e-9) + 1e-12:
            fails["stability"] += 1
    for key, n_bad in fails.items():
        verdict.add(
            f"exact inequality suite: {key}",
            float(n_bad), "==", 0.0,
            note=f"violations among {n_cases} seeded instances",
        )

    path = write_csv(
        os.path.join(cfg.out_dir, f"bmo_equivalence_lam{lam:g}.csv"),
        [
            f"scenario={cfg.name} seed={cfg.seed} lam={lam:g} p={p:g} s={s:g} alpha={alpha:g}",
            "check: all oscillation-norm flavors agree within the recorded band; "
            "one-sided constants are exact per interval",
        ],
        ["symbol", "triangle", "weighted_Lp_w", "median_w", "mean_osc_dx",
         "Lp_dx", "median_dx", "max_ratio"],
        rows,
    )
    verdict.artifacts.append(path)
    return verdict
