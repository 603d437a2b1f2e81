"""Commutator-form sparse operators against the squared-envelope bound.

The protocol of the plain sparse sweep is reused with the oscillation symbol
b = log x^{2 lam}, for both the left form (oscillation outside the average)
and its mu-adjoint, with the slope budget doubled:

    norm lower bound <= C * ||b|| * [w]^{2 max(1, 1/(p-1))}.

Both forms run over one build of each family: its oscillation factors, the
witnesses, the weight constants and the witness norms are shared.

Two structural facts are pinned exactly: a constant symbol annihilates both
forms, and b -> 2b doubles every measured norm (positive homogeneity of the
oscillation factor).
"""

from __future__ import annotations

from ..bmo import bmo_triangle_norm
from ..dyadic import canonical_major_subsets, zero_chain
from ..measure import BesselMeasure, FuncExpr, Interval
from ..operators import lp_norm, oscillation_factors, sparse_commutator_apply
from ..weights import IntervalFamily, Weight
from .config import ScenarioConfig
from .sparse_scaling import run_operator_sweeps
from .verdict import Verdict

_VARIANTS = ("left", "adjoint")


def run_commutator_bound(cfg: ScenarioConfig) -> Verdict:
    lam = cfg.get_float("lam")
    cfg.require("lam", lam > 0.0, "be > 0")
    b = FuncExpr.log_of_mu_density(lam)
    m = BesselMeasure(lam)

    def build(S, mm):
        factors = oscillation_factors(S, b, mm)
        return tuple(
            lambda f, v=v: sparse_commutator_apply(factors, f, mm, v) for v in _VARIANTS
        )

    verdict = run_operator_sweeps(
        cfg, build, [f"commutator({v})" for v in _VARIANTS], budget_factor=2.0
    )

    # structural checks on a fixed instance
    S = canonical_major_subsets(zero_chain(list(range(8))), m)
    f = FuncExpr.indicator(Interval(0.0, 1.0))
    w = Weight.power(0.5)
    dom = Interval(0.0, 2.0)
    p = 2.0
    left = lambda sym: sparse_commutator_apply(oscillation_factors(S, sym, m), f, m, "left")
    zero_out = left(FuncExpr.constant(3.0))
    verdict.add(
        "constant symbol annihilates",
        0.0 if zero_out.is_zero() else lp_norm(zero_out, p, w, dom), "<=", 1e-12,
        note="|b - b_Q| = 0 for constant b",
    )
    base = lp_norm(left(b), p, w, dom)
    doubled = lp_norm(left(b * 2.0), p, w, dom)
    verdict.add(
        "positive homogeneity in the symbol",
        abs(doubled - 2.0 * base) / (2.0 * base), "<=", 1e-9,
        note="scaling b -> 2b doubles the measured norm exactly",
    )
    norm_b = bmo_triangle_norm(b, m, IntervalFamily.standard(10, seed=cfg.seed)).norm_estimate
    verdict.add(
        "oscillation-norm prefactor recorded",
        norm_b, "finite", float("inf"),
        note="estimates scale linearly in the symbol's oscillation norm",
    )
    return verdict
