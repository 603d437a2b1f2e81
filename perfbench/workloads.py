"""The benchmark's workloads, expected verdicts and output checks.

A workload is a closed loop of units: one client in one process runs a
unit, waits for its verdicts, and starts the next.  A unit is the call
sequence below, at the shipped config sizes.  The workload seed reaches the
program only through the config's seed override (`config_seed`) and, for the
library protocols of the `kernel` workload, through the generated inputs.

    sweep        power-sweep
    sparse       sparse-scaling, commutator-bound
    oscillation  bmo-equivalence
    kernel       endpoint, counterexample, C9-style layered-mass instances,
                 C5-style separated ball pairs

An operation is one scenario check, one artifact, or one protocol
inequality.  A check fails when its verdict differs from `EXPECTED_VERDICTS`;
an artifact fails when it differs from the stored reference of its config
seed beyond `REL_TOL`; an exception fails every operation of its call.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Config seeds with stored reference artifacts; the workload seed selects one.
REFERENCE_SEEDS = tuple(range(1, 11))

# Relative tolerance for numeric tokens of artifacts; text tokens must match
# exactly.  Wide enough for summation-order drift, far below any verdict
# margin.
REL_TOL = 1e-9

WORKLOADS = {
    "sweep": (("power-sweep",), ()),
    "sparse": (("sparse-scaling", "commutator-bound"), ()),
    "oscillation": (("bmo-equivalence",), ()),
    "kernel": (("endpoint", "counterexample"), ("c9", "c5")),
}

_PS = ("1.5", "2", "3")


def _sweep_checks(label: str) -> list[str]:
    return [f"{label} {kind} p={p}" for p in _PS for kind in ("slope", "single-constant ratio")]


def _counterexample_checks() -> list[str]:
    out = []
    for lam in ("0.5", "1"):
        out += [
            f"strict per-decade gate lam={lam}",
            f"divergence without bound lam={lam}",
            f"log-slope anchor lam={lam}",
            f"symbol oscillation closed form lam={lam}",
            f"symbol BMO-finite lam={lam}",
        ]
    return out + ["bounded-symbol contrast plateaus"]


# Every check the shipped configs produce, in order.  All are expected to
# PASS except the documented strict per-decade gate of the counterexample
# scenario, whose multiplicative growth requirement is unattainable.
EXPECTED_FAIL = frozenset({"strict per-decade gate lam=0.5", "strict per-decade gate lam=1"})
EXPECTED_CHECKS = {
    "power-sweep": [
        "dichotomy p=2 lam=1",
        "dichotomy p=1.5 lam=0.5",
        "dichotomy p=3 lam=1",
        "cross-membership alpha=5",
        "cross-membership alpha=-2",
    ],
    "sparse-scaling": _sweep_checks("sparse operator"),
    "commutator-bound": _sweep_checks("commutator(left)")
    + _sweep_checks("commutator(adjoint)")
    + [
        "constant symbol annihilates",
        "positive homogeneity in the symbol",
        "oscillation-norm prefactor recorded",
    ],
    "endpoint": [
        "LlogL single constant",
        "L1 analogue rejected",
        "L1 ratio drift",
        "superlinearity of the L log L gauge",
        "zero exceedance above the peak",
        "c-constant finite for LlogL^0.5",
        "maximal-form right side dominates",
        "median-threshold halving at one calibrated level",
    ],
    "counterexample": _counterexample_checks(),
    "bmo-equivalence": [
        "six-flavor ratio band",
        "norm-level quantile bound",
        "per-interval reverse embedding",
        "exact inequality suite: quantile",
        "exact inequality suite: sandwich",
        "exact inequality suite: stability",
    ],
}
EXPECTED_VERDICTS = {
    scenario: {name: name not in EXPECTED_FAIL for name in names}
    for scenario, names in EXPECTED_CHECKS.items()
}


def config_seed(seed: int) -> int:
    """The config seed (one with stored references) for a workload seed."""
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def reference_path(cfg_seed: int) -> Path:
    return REFERENCE_DIR / f"seed{cfg_seed}.json"


def load_reference(cfg_seed: int) -> dict[str, str]:
    with open(reference_path(cfg_seed), encoding="utf-8") as fh:
        return json.load(fh)


# -- output checks ------------------------------------------------------------

_TOKEN = re.compile(r"([\s,=:;()\[\]]+)")


def _numeric(tok: str) -> float | None:
    try:
        return float(tok)
    except ValueError:
        return None


def _tokens_agree(a: str, b: str) -> bool:
    if a == b:
        return True
    x, y = _numeric(a), _numeric(b)
    if x is None or y is None:
        return False
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=0.0)


def artifact_matches(text: str, reference: str) -> bool:
    """Token-wise comparison: numbers within REL_TOL, everything else exact."""
    got, want = text.splitlines(), reference.splitlines()
    if len(got) != len(want):
        return False
    for line_got, line_want in zip(got, want):
        tg, tw = _TOKEN.split(line_got), _TOKEN.split(line_want)
        if len(tg) != len(tw) or not all(_tokens_agree(a, b) for a, b in zip(tg, tw)):
            return False
    return True


def check_verdict(verdict, reference: dict[str, str]) -> tuple[list[tuple[str, bool]], dict[str, str]]:
    """(operations, artifact texts) of one scenario verdict."""
    expected = EXPECTED_VERDICTS[verdict.scenario]
    ops = []
    seen = set()
    for check in verdict.checks:
        seen.add(check.name)
        ok = check.name in expected and check.passed == expected[check.name]
        ops.append((f"{verdict.scenario}: {check.name}", ok))
    ops += [(f"{verdict.scenario}: missing check {name}", False) for name in expected if name not in seen]
    texts = {}
    for path in verdict.artifacts:
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            texts[name] = fh.read()
        ops.append((f"{verdict.scenario}: artifact {name}", name in reference and artifact_matches(texts[name], reference[name])))
    return ops, texts


# -- library protocols of the kernel workload -----------------------------------

C9_INSTANCES = 4
C5_LAMS = (0.3, 0.5, 1.0, 2.0)
C5_PAIRS_PER_LAM = 100
C9_SUBTREE_CUBES = 8


def c9_protocol(seed: int) -> list[tuple[str, bool]]:
    """C9-style layered mass bound on seeded norm-banded families.

    Zero-based chains and random dyadic subtrees under [0, 1) carry an
    llogl-banded indicator; each band is checked, for the three weights of
    the acceptance criterion, on a seeded zero-based set E: lhs <= rhs.
    """
    import numpy as np

    from besselweights.dyadic import (
        DyadicCube,
        canonical_major_subsets,
        level_sets,
        random_subtree,
        zero_chain,
    )
    from besselweights.measure import BesselMeasure, FuncExpr, Interval
    from besselweights.operators import sparse_layer_mass_bound
    from besselweights.orlicz import llogl
    from besselweights.weights import Weight

    rng = np.random.default_rng([seed % 2**32, 9])
    m = BesselMeasure(1.0)
    psi = phi = llogl(1.0)
    weights = (Weight.power(2.0), Weight.one(), Weight.power(1.0))
    ops = []
    for i in range(C9_INSTANCES):
        if i % 2 == 0:
            levels = rng.choice(np.arange(0, 12), size=5, replace=False)
            cubes = zero_chain([int(v) for v in levels])
        else:
            tree = random_subtree(DyadicCube(0, 0), 4, seed=int(rng.integers(2**31)), keep_prob=0.8)
            cubes = tree[:C9_SUBTREE_CUBES]
        S = canonical_major_subsets(cubes, m)
        k = int(rng.integers(1, 4))
        f = FuncExpr.indicator(Interval(0.0, 1.0), 4.0**-k * psi.inverse(1.0))
        bands, overflow = level_sets(S.cubes, f, psi, m)
        ops.append((f"c9[{i}] banded", not overflow and bool(bands)))
        for band, band_cubes in sorted(bands.items()):
            Sk = canonical_major_subsets(band_cubes, m)
            for j, w in enumerate(weights):
                E = [Interval(0.0, float(2.0 ** -rng.uniform(0.0, 10.0)))]
                lhs, rhs, _ = sparse_layer_mass_bound(Sk, f, psi, phi, w, E, m, band)
                ops.append((f"c9[{i}] band {band} weight {j}: lhs <= rhs", lhs <= rhs * (1 + 1e-9)))
    return ops


def c5_protocol(seed: int) -> list[tuple[str, bool]]:
    """C5-style kernel lower-bound geometry on seeded separated ball pairs:
    the kernel keeps one sign on B x Btilde and stays away from zero."""
    import numpy as np

    from besselweights.riesz import RieszKernelEvaluator, SeparatedBallPair, lower_bound_check

    rng = np.random.default_rng([seed % 2**32, 5])
    ops = []
    for lam in C5_LAMS:
        ev = RieszKernelEvaluator(lam, nodes=1024)
        for i in range(C5_PAIRS_PER_LAM):
            r = float(10.0 ** rng.uniform(-2.0, 1.0))
            pair = SeparatedBallPair.build(r * float(rng.uniform(1.5, 25.0)), r, float(rng.uniform(3.0, 12.0)))
            sign_constant, min_abs, _ = lower_bound_check(ev, pair, samples=6)
            ops.append((f"c5 lam={lam:g} pair {i}: sign-constant", sign_constant and min_abs > 0.0))
    return ops


PROTOCOLS = {"c9": c9_protocol, "c5": c5_protocol}


# -- one unit of work -------------------------------------------------------------


@dataclass
class UnitResult:
    wall_s: float
    ops: list[tuple[str, bool]] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)
    verdict_lines: list[str] = field(default_factory=list)

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.ops if not ok]


def run_unit(workload: str, seed: int, out_dir: str, tracer=None) -> UnitResult:
    """Run one unit of `workload`; time it, then check every output.

    A tracer is installed for the timed calls only; each scenario call and
    protocol call is the root span of its own trace.
    """
    from besselweights.experiments import SCENARIOS, load_default_config

    scenarios, protocols = WORKLOADS[workload]
    cfg_seed = config_seed(seed)
    configs = [load_default_config(name, out_dir, cfg_seed) for name in scenarios]
    outcomes = []
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        for name, cfg in zip(scenarios, configs):
            outcomes.append(_call(tracer, "experiments", f"experiments.{name}", SCENARIOS[name][0], cfg))
        for name in protocols:
            outcomes.append(_call(tracer, "bench", f"bench.{name}", PROTOCOLS[name], seed))
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = UnitResult(wall)
    reference = load_reference(cfg_seed)
    for name, (value, error) in zip(scenarios + protocols, outcomes):
        if error is not None:
            n_ops = len(EXPECTED_CHECKS.get(name, ())) or 1
            result.ops += [(f"{name}: {error}", False)] * n_ops
        elif name in PROTOCOLS:
            result.ops += value
        else:
            ops, texts = check_verdict(value, reference)
            result.ops += ops
            result.artifacts.update(texts)
            result.verdict_lines += value.lines()
    return result


def _call(tracer, layer, name, fn, arg):
    """(value, None) or (None, error text); any exception is a failure."""
    try:
        if tracer is None:
            return fn(arg), None
        with tracer.root(layer, name):
            return fn(arg), None
    except Exception as exc:  # noqa: BLE001 - the benchmark records, never aborts
        return None, f"{type(exc).__name__}: {exc}"
