"""Power-weight membership sweep.

For each (p, lam) pair and both weight classes, exponents alpha are sampled
inside the exact admissible range, on its boundary, and outside it.  The
stabilisation/divergence dichotomy (constant at depth 2J versus depth J,
symbolic divergence flags on zero-based intervals) must classify every sample
according to the exact ranges

    classical: (-1 - 2 lam, p - 1 + 2 lam (p - 1)),
    modified:  (-1, p - 1 + (2 lam + 1) p).

The sweep also pins the two cross-membership witnesses at (p, lam) = (2, 1):
alpha = 5 is outside the classical range but inside the modified one, and
alpha = -2 is the reverse, so neither class contains the other.
"""

from __future__ import annotations

import functools
import os

from ..errors import ConfigError
from ..weights import ApMu, TildeAp, power_dichotomy, power_weight_range
from .config import ScenarioConfig
from .csvio import write_csv
from .verdict import Verdict


def sample_exponents(lower: float, upper: float, margin: float) -> list[tuple[float, str]]:
    """Three interior quartiles, both ends and one exterior point past each
    end, then alpha = 0 when it is interior.  On a range centred at 0 the
    midpoint is 0 too; both alpha = 0 rows are kept, so the CSV bytes stay
    those the sweep has always written."""
    width = upper - lower
    samples = [
        (lower + 0.25 * width, "interior"),
        (lower + 0.5 * width, "interior"),
        (lower + 0.75 * width, "interior"),
        (lower, "boundary"),
        (upper, "boundary"),
        (lower - margin, "exterior"),
        (upper + margin, "exterior"),
    ]
    if lower < 0.0 < upper:
        samples.append((0.0, "interior"))
    return samples


def run_power_weight_sweep(cfg: ScenarioConfig) -> Verdict:
    verdict = Verdict(cfg.name)
    pairs = []
    for token in cfg.get("pairs").split():
        p_str, _, lam_str = token.partition(":")
        try:
            pairs.append((float(p_str), float(lam_str)))
        except ValueError:
            raise ConfigError(f"{cfg.name}: pairs token '{token}' is not p:lam") from None
    if not pairs:
        raise ConfigError(f"{cfg.name}: key 'pairs' is an empty list")
    cfg.require("pairs", all(p > 1.0 and lam > 0.0 for p, lam in pairs),
                "hold p:lam with p > 1 and lam > 0")
    depth = cfg.get_count("depth")
    margin = cfg.get_float("exterior_margin")
    band = cfg.get_float("stabilization_band")
    growth = cfg.get_float("divergence_ratio")
    n_random = cfg.get_int("n_random")

    @functools.cache
    def dichotomy(alpha, tag):
        # a repeated (alpha, tag) reads its first result: the duplicate
        # alpha = 0 sample and the cross-membership rerun of a sampled alpha
        return power_dichotomy(alpha, tag, depth, seed=cfg.seed, n_random=n_random,
                               stabilization_band=band)

    for p, lam in pairs:
        rows = []
        correct = total = 0
        for tag_name, tag in (("classical", ApMu(p, lam)), ("modified", TildeAp(p, lam))):
            rng = power_weight_range(tag)
            for alpha, kind in sample_exponents(rng.lower, rng.upper, margin):
                expected = kind == "interior"
                res = dichotomy(alpha, tag)
                ok = res.member == expected and (
                    expected or res.divergent or res.ratio > growth
                )
                correct += ok
                total += 1
                rows.append(
                    (
                        tag_name,
                        alpha,
                        kind,
                        expected,
                        res.value_at_depth,
                        res.value_at_double,
                        res.ratio,
                        res.divergent,
                        res.member,
                        ok,
                    )
                )
        path = write_csv(
            os.path.join(cfg.out_dir, f"power_sweep_p{p:g}_lam{lam:g}.csv"),
            [
                f"scenario={cfg.name} seed={cfg.seed} p={p:g} lam={lam:g} depth={depth}",
                "check: interior alpha stabilize (depth-2J/depth-J ratio < "
                f"{band:g} at J={depth}); boundary/exterior alpha diverge "
                f"(flag or ratio > {growth:g} by J={2 * depth})",
                "classical range (-1-2lam, p-1+2lam(p-1)); modified range (-1, p-1+(2lam+1)p)",
            ],
            [
                "class", "alpha", "kind", "expected_member", "value_J", "value_2J",
                "ratio", "divergent", "member", "classified_ok",
            ],
            rows,
        )
        verdict.artifacts.append(path)
        verdict.add(
            f"dichotomy p={p:g} lam={lam:g}",
            float(correct), "==", float(total),
            note="stabilisation vs divergence against the exact power ranges",
        )

    # cross-membership witnesses at (p, lam) = (2, 1)
    for alpha, cls_member, mod_member in ((5.0, False, True), (-2.0, True, False)):
        rc, rm = (dichotomy(alpha, tag) for tag in (ApMu(2.0, 1.0), TildeAp(2.0, 1.0)))
        verdict.add(
            f"cross-membership alpha={alpha:g}",
            float(rc.member == cls_member and rm.member == mod_member), "==", 1.0,
            note="neither weight class contains the other on the power scale",
        )
    return verdict
