"""Sparse-operator norm growth against the weight constant.

Power weights t^alpha approach the lower class boundary alpha -> -1; at each
sweep point the weight constant [w] is estimated over the standard interval
family, and an operator-norm lower bound for the sparse operator on a
boundary-stressing zero-based chain is measured from a witness family (cube
indicators, the dual-density direction t^{-alpha}, zero-based plateaus, and
seeded random steps).  The chain depth grows like 1/delta with the distance
delta to the boundary so the lower bound can follow the constant.

The witnesses and their images T f depend only on the family, the witness and
the measure, not on p: each family's operator is applied to each witness once,
family by family, and the images serve every p.  Each witness and each image
takes one L^p walk for all the ps (`operator_norm_lower_bound`).

Pass criteria: the log-log slope of estimate vs [w] stays at most
max(1, 1/(p-1)) + slack, and the per-point ratio estimate / [w]^exponent is
bounded by one constant calibrated on the first sweep points.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ..dyadic import SparseFamily, canonical_major_subsets, verify_sparse, zero_chain
from ..errors import ConfigError
from ..measure import BesselMeasure, FuncExpr, Interval
from ..operators import operator_norm_lower_bound, sparse_apply
from ..weights import IntervalFamily, TildeAp, Weight, weight_constant
from .config import ScenarioConfig
from .csvio import write_csv
from .verdict import Verdict


def chain_family(delta: float, depth_growth: float, depth_cap: int, m: BesselMeasure):
    depth = min(depth_cap, max(10, int(math.ceil(depth_growth / delta))))
    cubes = zero_chain(list(range(depth)))
    return canonical_major_subsets(cubes, m)


def witness_functions(alpha: float, depth: int, seed: int) -> list[FuncExpr]:
    rng = np.random.default_rng(seed)
    out = [FuncExpr.indicator(Interval(0.0, 1.0))]
    out.append(FuncExpr.power(1.0, -alpha).restrict(Interval(0.0, 1.0)))
    for j in (depth // 2, depth - 1):
        out.append(FuncExpr.indicator(Interval(0.0, 2.0**-j)))
    for _ in range(3):
        breaks = [0.0] + sorted(10.0 ** rng.uniform(-6, 0, size=4)) + [1.0]
        vals = list(rng.uniform(0.0, 2.0, size=len(breaks) - 1))
        out.append(FuncExpr.piecewise_constant(breaks, vals))
    return out


# A stored eta may exceed the measured min mu(E_Q)/mu(Q) by this much, relative:
# a depth-120 chain stores 7/8 and measures 0.8749999999999695 after a round trip.
_ETA_SLACK = 1e-12


def _load_replay_family(path: str, m: BesselMeasure):
    """The stored family, checked: each major subset inside its cube, the
    subsets disjoint (DisjointnessError otherwise), and a stored eta the
    subsets attain."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            S = SparseFamily.from_lines(fh)
            measured, witness = verify_sparse(S, m)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if S.eta > measured * (1.0 + _ETA_SLACK):
        raise ConfigError(
            f"{path}: stored eta {S.eta!r} exceeds mu(E_Q)/mu(Q) = {measured!r} on {witness}"
        )
    return S


def _family_rows(seed: int, ps: list[float], c: float, fam: IntervalFamily, delta: float, S, ops):
    """rows[k][i]: operator k's sweep row at ps[i] for one family.  The
    witnesses and their images do not depend on p, so each operator is
    applied to each witness once, and one norm estimate call serves every
    p; the images die with this call."""
    alpha = -1.0 + delta
    w = Weight.power(alpha)
    depth = len(S.cubes)
    witnesses = witness_functions(alpha, depth, seed)
    images = [[T(f) for f in witnesses] for T in ops]
    estimates = operator_norm_lower_bound(witnesses, images, ps, w, Interval(0.0, 2.0))
    rows: list[list[tuple]] = [[] for _ in ops]
    for p, row in zip(ps, estimates):
        wc = weight_constant(w, TildeAp(p, c), fam)
        for k, est in enumerate(row):
            rows[k].append((p, alpha, delta, depth, S.eta, wc.value, est.value))
    return rows


def run_sparse_scaling(cfg: ScenarioConfig) -> Verdict:
    """The sweep of `sparse_apply`; each family is built once and its
    operator serves every p and witness."""
    return run_operator_sweeps(
        cfg, lambda S, m: (lambda f: sparse_apply(S, f, m),), ("sparse operator",), 1.0
    )


def run_operator_sweeps(cfg: ScenarioConfig, build, labels, budget_factor: float) -> Verdict:
    """The sweep for several operators of each family at once: `build(S, m)`
    returns one operator f -> FuncExpr per label.  The families, witnesses,
    weight constants and witness norms are shared by every operator; each
    label gets its own checks, CSV and replayable family."""
    verdict = Verdict(cfg.name)
    lam = cfg.get_float("lam")
    ps = cfg.get_floats("ps")
    deltas = cfg.get_floats("deltas")
    slack = cfg.get_float("slope_slack")
    calib_margin = cfg.get_float("ratio_margin")
    calib_count = cfg.get_count("calibration_points")
    depth_growth = cfg.get_float("depth_growth")
    depth_cap = cfg.get_count("depth_cap")
    fam_depth = cfg.get_count("family_depth")
    replay = cfg.get("sparse_file")
    cfg.require("lam", lam > 0.0, "be > 0")
    cfg.require("ps", all(p > 1.0 for p in ps), "hold values > 1")
    cfg.require("deltas", all(d > 0.0 for d in deltas), "hold values > 0")

    m = BesselMeasure(lam)
    fam = IntervalFamily.standard(fam_depth, seed=cfg.seed)
    replayed = _load_replay_family(replay, m) if replay else None
    deepest, family_rows = None, []  # family_rows[f][k][i]: family f, operator k, ps[i]
    for delta in deltas:
        S = replayed if replay else chain_family(delta, depth_growth, depth_cap, m)
        family_rows.append(_family_rows(cfg.seed, ps, lam - 0.5, fam, delta, S, build(S, m)))
        if deepest is None or len(S.cubes) > len(deepest.cubes):
            deepest = S

    for k, label in enumerate(labels):
        all_rows = []
        for i, p in enumerate(ps):
            exponent = budget_factor * max(1.0, 1.0 / (p - 1.0))
            rows = [fr[k][i] for fr in family_rows]
            logw = [math.log(wc) for (*_, wc, _) in rows]
            logn = [math.log(est) for (*_, est) in rows]
            slope = float(np.polyfit(logw, logn, 1)[0])
            ratios = [est / wc**exponent for (*_, wc, est) in rows]
            all_rows += [r + (ratio,) for r, ratio in zip(rows, ratios)]
            budget = exponent + slack
            verdict.add(
                f"{label} slope p={p:g}",
                slope, "<=", budget,
                note=f"log-log slope of norm lower bound vs [w]; budget {budget_factor:g}*max(1,1/(p-1))+{slack:g}",
            )
            c_cal = calib_margin * max(ratios[:calib_count])
            verdict.add(
                f"{label} single-constant ratio p={p:g}",
                max(ratios), "<=", c_cal,
                note="estimate/[w]^exponent bounded by the constant calibrated on the first sweep points",
            )
        slug = label.replace(" ", "_").replace("(", "_").replace(")", "")
        path = write_csv(
            os.path.join(cfg.out_dir, f"{cfg.name}_{slug}_lam{lam:g}.csv"),
            [
                f"scenario={cfg.name} seed={cfg.seed} lam={lam:g}",
                f"check: {label} norm lower bound <= C * [w]^({budget_factor:g}*max(1,1/(p-1))) "
                "for the modified class at parameter lam-1/2",
            ],
            ["p", "alpha", "delta", "chain_depth", "eta", "weight_constant",
             "norm_lower_bound", "ratio_to_envelope"],
            all_rows,
        )
        verdict.artifacts.append(path)
        if deepest is not None:
            os.makedirs(cfg.out_dir, exist_ok=True)
            fam_path = os.path.join(cfg.out_dir, f"{cfg.name}_{slug}_lam{lam:g}.sparse")
            with open(fam_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(deepest.to_lines()) + "\n")
            verdict.artifacts.append(fam_path)
    return verdict
