"""Weighted endpoint behavior of the Riesz commutator at the L log L scale.

With the oscillation symbol b = log x^{2 lam}, an indicator atom f near the
origin, and a power weight in the limiting class at parameter lam - 1/2, the
exceedance mass w({|[b,R]f| > t}) is compared across six decades of t against

    rhs(t) = Phi(||b|| / t) * w(atom),      Phi(u) = u log(e + u),

requiring a single constant C for all t (calibrated on the largest decades
and asserted on the rest).  The same data must REJECT the L^1 analogue
(Phi replaced by the identity): its normalised ratio drifts upward without
bound, exhibiting why the L log L scale is the right endpoint scale.

The commutator profile is sampled on two-sided geometric grids off the atom;
exceedance sets are interval unions of the log-linear interpolant with exact
weight masses.  A reverse-direction ingredient is also checked: for separated
ball pairs, the median-threshold quantile w({x in B : |b - alpha| > A}) <=
w(B)/2 holds at one calibrated A across fresh pairs.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ..bmo import bmo_triangle_norm, median, quantile_threshold
from ..errors import ConfigError
from ..measure import BesselMeasure, FuncExpr, Interval
from ..orlicz import c_phi, compose_young, llogl
from ..riesz import RieszKernelEvaluator, SeparatedBallPair
from ..weights import IntervalFamily, Weight
from .config import ScenarioConfig
from .csvio import write_csv
from .verdict import Verdict


def sampled_profile(ev, b, f, atom: Interval, x_max: float, n_right: int, n_left: int):
    right = np.geomspace(4.0 * atom.b / 2.0, x_max, n_right)
    left = np.geomspace(atom.a * 1e-3, atom.a / 2.0, n_left)
    prof_r = [(float(x), abs(ev.commutator_apply(b, f, float(x)))) for x in right]
    prof_l = [(float(x), abs(ev.commutator_apply(b, f, float(x)))) for x in left]
    return prof_l, prof_r


def exceedance_mass(profiles, t: float, w: Weight) -> float:
    """w-measure of {interpolated |commutator| > t}, crossings located by
    linear interpolation in log x."""
    total = 0.0
    for prof in profiles:
        for (x0, v0), (x1, v1) in zip(prof, prof[1:]):
            if v0 <= t and v1 <= t:
                continue
            lo, hi = x0, x1
            if v0 <= t < v1:
                s = (t - v0) / (v1 - v0)
                lo = math.exp(math.log(x0) + s * (math.log(x1) - math.log(x0)))
            elif v1 <= t < v0:
                s = (t - v0) / (v1 - v0)
                hi = math.exp(math.log(x0) + s * (math.log(x1) - math.log(x0)))
            if lo < hi:
                total += w.mass(Interval(lo, hi))
    return total


def run_endpoint(cfg: ScenarioConfig) -> Verdict:
    verdict = Verdict(cfg.name)
    lam = cfg.get_float("lam")
    eps = cfg.get_float("eps")
    alpha = cfg.get_float("alpha")  # weight exponent
    if not -1.0 < alpha <= 2.0 * lam:  # the limiting class at c = lam - 1/2
        raise ConfigError(f"{cfg.name}: alpha = {alpha:g} is outside (-1, 2 lam] = (-1, {2 * lam:g}]")
    decades = cfg.get_float("decades")
    per_decade = cfg.get_count("points_per_decade")
    x_max = cfg.get_float("x_max")
    n_right, n_left = cfg.get_count("n_right"), cfg.get_count("n_left")
    n_pairs = cfg.get_count("n_pairs")
    margin = cfg.get_float("single_constant_margin")
    drift_gate = cfg.get_float("l1_drift_gate")
    split_margin = cfg.get_float("median_split_margin")
    phi_eps = cfg.get_float("phi_eps")
    cfg.require("eps", eps > 0.0, "be > 0")
    cfg.require("phi_eps", 0.0 < phi_eps <= 1.0, "lie in (0, 1]")

    m = BesselMeasure(lam)
    ev = RieszKernelEvaluator(lam)
    b = FuncExpr.log_of_mu_density(lam)
    atom = Interval(eps, 2.0 * eps)
    f = FuncExpr.indicator(atom)
    w = Weight.power(alpha)
    norm_b = bmo_triangle_norm(b, m, IntervalFamily.standard(10, seed=cfg.seed)).norm_estimate
    Phi = lambda u: u * math.log(math.e + u)

    profiles = sampled_profile(ev, b, f, atom, x_max, n_right, n_left)
    vmax = max(v for prof in profiles for _, v in prof)
    n_pts = int(decades * per_decade) + 1
    ts = [0.5 * vmax * 10.0 ** (-k / per_decade) for k in range(n_pts)]
    w_atom = w.mass(atom)

    rows, r_phi, r_l1 = [], [], []
    for t in ts:
        lhs = exceedance_mass(profiles, t, w)
        rhs = Phi(norm_b / t) * w_atom
        rhs_l1 = norm_b / t * w_atom
        rows.append((t, lhs, rhs, rhs_l1, lhs / rhs, lhs / rhs_l1))
        r_phi.append(lhs / rhs)
        r_l1.append(lhs / rhs_l1)

    calib = max(r_phi[: 2 * per_decade]) * margin
    verdict.add(
        "LlogL single constant",
        max(r_phi), "<=", calib,
        note="exceedance w-mass <= C * Phi(||b|| |f|/t)-integral with one C "
        "across all decades (C calibrated on the top two)",
    )
    calib_l1 = max(r_l1[: 2 * per_decade]) * margin
    verdict.add(
        "L1 analogue rejected",
        max(r_l1), ">", calib_l1,
        note="the identity-scale ratio escapes its calibrated constant",
    )
    nonzero = [r for r, row in zip(r_l1, rows) if row[1] > 0]
    drift = max(nonzero) / min(nonzero) if nonzero else 0.0
    verdict.add(
        "L1 ratio drift",
        drift, ">=", drift_gate,
        note="max/min of the L1-normalised ratio over the sampled decades",
    )
    verdict.add(
        "superlinearity of the L log L gauge",
        rows[-1][2] / rows[0][2], ">", 10.0 ** decades,
        note="rhs grows faster than 1/t across the sweep",
    )
    verdict.add(
        "zero exceedance above the peak",
        exceedance_mass(profiles, 2.0 * vmax, w), "==", 0.0,
        note="thresholds above max |commutator| give the empty set",
    )

    # endpoint constant of the configured auxiliary Young function
    res = c_phi(llogl(phi_eps))
    verdict.add(
        f"c-constant finite for LlogL^{phi_eps:g}",
        res.value, "<=", 1e6,  # inf when c_phi calls the integral divergent
        note="integral of phi^{-1}(t)/(t^2 log(e+t)) converges",
    )
    # full maximal-form right side recorded for the density-weight case
    if abs(alpha - 2.0 * lam) < 1e-12:
        comp = compose_young(llogl(1.0), llogl(phi_eps))
        m_const = 1.0 / comp.inverse(1.0)
        full_rows = [
            (t, lhs, res.value * Phi(2.0 * norm_b / t) * m_const * m.mu(atom))
            for (t, lhs, *_ ) in rows
        ]
        ratios_full = [lhs / rhs for _, lhs, rhs in full_rows if rhs > 0]
        verdict.add(
            "maximal-form right side dominates",
            max(ratios_full), "<=", margin * max(ratios_full[: 2 * per_decade]),
            note="C * Phi(2||b|| |f|/t) * M-profile integral, density weight",
        )

    # reverse-direction ingredient: one threshold A halves every ball.  the
    # threshold depends only on the pair's shape (the symbol shifts by a
    # constant under dilation), so A is calibrated once on a deterministic
    # shape grid covering the admissible geometry box and asserted on seeded
    # random pairs at random scales
    def halving_threshold(pair: SeparatedBallPair) -> float:
        return quantile_threshold(b, median(b, pair.Btilde, m), pair.B, w, 0.5)

    grid_vals = [
        halving_threshold(SeparatedBallPair.build(rel * 1.0, 1.0, sep))
        for rel in (1.2, 1.5, 2.0, 4.0, 8.0, 16.0, 24.0)
        for sep in (3.0, 6.0, 9.0, 12.0)
    ]
    A_cal = max(grid_vals) * split_margin
    rng = np.random.default_rng(cfg.seed)
    validation = []
    for _ in range(n_pairs):
        r = float(10.0 ** rng.uniform(-2, 1))
        center = r * float(rng.uniform(1.5, 20.0))
        sep = float(rng.uniform(3.0, 12.0))
        validation.append(halving_threshold(SeparatedBallPair.build(center, r, sep)))
    verdict.add(
        "median-threshold halving at one calibrated level",
        max(validation), "<=", A_cal,
        note="w({x in B : |b - alpha(Btilde)| > A}) <= w(B)/2 at a single A "
        "calibrated on the unit-scale shape grid",
    )

    path = write_csv(
        os.path.join(cfg.out_dir, f"endpoint_lam{lam:g}_alpha{alpha:g}.csv"),
        [
            f"scenario={cfg.name} seed={cfg.seed} lam={lam:g} eps={eps:g} alpha={alpha:g}",
            "check: exceedance w-mass <= C * Phi(||b|| |f|/t) * w(atom) with one C; "
            "identity scale must fail the same test",
            f"symbol norm estimate = {norm_b:.6e}; peak |commutator| = {vmax:.6e}",
        ],
        ["t", "lhs_w_mass", "rhs_llogl", "rhs_l1", "ratio_llogl", "ratio_l1"],
        rows,
    )
    verdict.artifacts.append(path)
    return verdict
