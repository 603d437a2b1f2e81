"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one `ACCEPTANCE <id>: PASS/FAIL` line (visible with -s, or
in the captured output on failure).  Criterion 6's per-decade growth gate is
additive: the tail product of the weak-(1,1) counterexample obeys
t X_t^k = eps^{2 lam} log(X_t/eps) with k = 2 lam + 1, which gives
k (u_{j+1} - u_j) = ln 10 + ln(u_{j+1}/u_j) > ln 10 for u_t = log(X_t/eps),
so every decade adds more than eps^{2 lam} ln 10 / k^2 to the product and
the sum has no bound.  Per-decade ratios decay toward 1, so a multiplicative
gate would be unattainable; the additive bound is the one the identity proves.
"""

import math
import time

import numpy as np
from scipy.special import lambertw

from besselweights.bmo import bmo_triangle_norm, log_mu_oscillation_endpoint_form
from besselweights.dyadic import canonical_major_subsets, level_sets, zero_chain
from besselweights.experiments import ScenarioConfig, load_default_config
from besselweights.experiments.bmo_equivalence import run_bmo_equivalence
from besselweights.experiments.commutator_bound import run_commutator_bound
from besselweights.experiments.counterexample import run_counterexample
from besselweights.experiments.endpoint import run_endpoint
from besselweights.experiments.power_sweep import run_power_weight_sweep
from besselweights.experiments.sparse_scaling import run_sparse_scaling
from besselweights.measure import BesselMeasure, FuncExpr, Interval, dmu
from besselweights.operators import sparse_layer_mass_bound
from besselweights.orlicz import llogl
from besselweights.riesz import (
    RieszKernelEvaluator,
    SeparatedBallPair,
    counterexample_g,
    counterexample_profile,
    kernel_lambda1_closed_form,
    lower_bound_check,
)
from besselweights.weights import (
    ApMu,
    IntervalFamily,
    TildeAp,
    Weight,
    dual_weight,
    power_dichotomy,
    power_weight_range,
    tilde_ap_quantity,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")


def default_cfg(name: str, out_dir: str) -> ScenarioConfig:
    return load_default_config(name, out_dir)


# -- criterion 1: power-weight dichotomy ---------------------------------------------


def test_c1_power_weight_dichotomy(tmp_path):
    t0 = time.time()
    failures = []
    for p, lam in ((2.0, 1.0), (1.5, 0.5), (3.0, 1.0)):
        for tag in (ApMu(p, lam), TildeAp(p, lam)):
            rng = power_weight_range(tag)
            width = rng.upper - rng.lower
            samples = [
                (rng.lower + 0.3 * width, True),
                (rng.lower + 0.7 * width, True),
                (rng.lower, False),
                (rng.upper, False),
                (rng.lower - 0.5, False),
                (rng.upper + 0.5, False),
            ]
            for alpha, interior in samples:
                res = power_dichotomy(alpha, tag, depth=20, seed=1, n_random=50,
                                      stabilization_band=1.05)
                if interior:
                    ok = (not res.divergent) and res.ratio < 1.05
                else:
                    ok = res.divergent or res.ratio > 2.0
                if not ok:
                    failures.append((p, lam, type(tag).__name__, alpha, res))
    elapsed = time.time() - t0
    report("C1", not failures and elapsed < 60.0, f"({elapsed:.1f}s, {len(failures)} misclassified)")
    assert not failures
    assert elapsed < 60.0


# -- criterion 2: exact duality identity ----------------------------------------------


def test_c2_duality_identity():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        lam = float(rng.uniform(0.2, 2.0))
        p = float(rng.uniform(1.15, 4.0))
        c = lam - 0.5
        bounds = power_weight_range(TildeAp(p, c))
        alpha = float(rng.uniform(bounds.lower + 0.05, bounds.upper - 0.05))
        a = float(10.0 ** rng.uniform(-3, 1.5))
        B = Interval(a, a * float(10.0 ** rng.uniform(0.05, 1.5)))
        w = Weight.power(alpha, coef=float(rng.uniform(0.5, 2.0)))
        pair = dual_weight(w, p, lam)
        lhs = tilde_ap_quantity(pair.sigma_star, p / (p - 1.0), c, B)
        rhs = tilde_ap_quantity(w, p, c, B) ** (1.0 / (p - 1.0))
        worst = max(worst, abs(lhs - rhs) / rhs)
    elapsed = time.time() - t0
    report("C2", worst <= 1e-10 and elapsed < 10.0, f"(worst rel {worst:.2e}, {elapsed:.1f}s)")
    assert worst <= 1e-10
    assert elapsed < 10.0


# -- criterion 3: sparse-bound scaling --------------------------------------------------


def test_c3_sparse_and_commutator_scaling(tmp_path):
    t0 = time.time()
    v1 = run_sparse_scaling(default_cfg("sparse-scaling", str(tmp_path)))
    v2 = run_commutator_bound(default_cfg("commutator-bound", str(tmp_path)))
    elapsed = time.time() - t0
    slopes_ok = all(c.passed for c in v1.checks + v2.checks if "slope" in c.name)
    ratios_ok = all(c.passed for c in v1.checks + v2.checks if "ratio" in c.name)
    report(
        "C3",
        slopes_ok and ratios_ok and elapsed < 300.0,
        f"({elapsed:.1f}s)",
    )
    assert slopes_ok and ratios_ok
    assert v1.passed and v2.passed
    assert elapsed < 300.0


# -- criterion 4: kernel closed form at lam = 1 -------------------------------------------


def test_c4_kernel_closed_form():
    t0 = time.time()
    ev = RieszKernelEvaluator(1.0)
    rng = np.random.default_rng(4)
    worst = 0.0
    pairs = []
    while len(pairs) < 10_000:
        x = float(10.0 ** rng.uniform(-2, 2))
        y = x * float(10.0 ** rng.uniform(-0.75, 0.75))  # ratio within [1/6, 6]
        if abs(x - y) < 1e-3 * max(x, y):
            continue
        pairs.append((x, y))
    for x, y in pairs:
        q = ev.kernel(x, y)
        c = kernel_lambda1_closed_form(x, y)
        worst = max(worst, abs(q - c) / abs(c))
    worst_h = 0.0
    for x, y in pairs[:200]:
        for s in (2.0, 10.0):
            k1 = ev.kernel(s * x, s * y)
            k0 = ev.kernel(x, y)
            worst_h = max(worst_h, abs(k1 - s**-3.0 * k0) / abs(s**-3.0 * k0))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and worst_h <= 1e-8 and elapsed < 30.0
    report("C4", ok, f"(closed-form rel {worst:.2e}, homogeneity {worst_h:.2e}, {elapsed:.1f}s)")
    assert worst <= 1e-9
    assert worst_h <= 1e-8
    assert elapsed < 30.0


# -- criterion 5: kernel lower-bound geometry ----------------------------------------------


def test_c5_lower_bound_geometry():
    t0 = time.time()
    rng = np.random.default_rng(5)
    all_ok = True
    detail = []
    for lam in (0.3, 0.5, 1.0, 2.0):
        ev = RieszKernelEvaluator(lam)
        shapes = []
        for _ in range(20):
            rel_center = float(rng.uniform(1.5, 25.0))
            sep = float(rng.uniform(3.0, 12.0))
            shapes.append((rel_center, sep))
        scales = [float(10.0 ** rng.uniform(-2, 2)) for _ in range(5)]
        values = {}
        for i, (rel_center, sep) in enumerate(shapes):
            for s in scales:
                r = 0.1 * s
                pair = SeparatedBallPair.build(rel_center * r, r, sep)
                ok, min_abs, bound = lower_bound_check(ev, pair, samples=6)
                all_ok &= ok
                values.setdefault(i, []).append(min_abs / bound)
        # per-shape scale stability within +-20%
        for i, vals in values.items():
            ref = vals[0]
            all_ok &= all(abs(v / ref - 1.0) <= 0.2 for v in vals)
        c_lam = min(vals[0] for vals in values.values())
        all_ok &= all(v >= 0.8 * c_lam for vals in values.values() for v in vals)
        detail.append(f"lam={lam:g}: c={c_lam:.3g}")
    elapsed = time.time() - t0
    report("C5", all_ok and elapsed < 60.0, f"({'; '.join(detail)}, {elapsed:.1f}s)")
    assert all_ok
    assert elapsed < 60.0


# -- criterion 6: counterexample divergence --------------------------------------------------


def test_c6_counterexample_strict_decade_gate():
    """Strict additive gate: massProduct gains more than
    delta = eps^{2 lam} ln 10 / k^2 on every decade of t in [1e-10, 1e-2].

    With k = 2 lam + 1, u_t = log(X_t/eps) and mu(x0, X) = (X^k - x0^k)/k,
    the identity t X_t^k = eps^{2 lam} u_t gives
      massProduct(t) = (eps^{2 lam} u_t - t x0^k) / k, with
      u_t = -W_{-1}(-k t eps) / k (Lambert W, lower branch), and
      k (u_{j+1} - u_j) = ln 10 + ln(u_{j+1}/u_j) > ln 10 for t_{j+1} = t_j/10,
    so each decade adds strictly more than delta (the -t x0^k term only adds)
    and the sum has no bound.  The excess over delta is about 1/(k u_t), which
    falls below 5% by t = 1e-10, so the last decade also bounds the rate from
    above: growth faster than logarithmic fails there.
    """
    t0 = time.time()
    eps = 1e-3
    offenders = []
    for lam in (0.5, 1.0):
        k = 2.0 * lam + 1.0
        e2l = eps ** (2.0 * lam)
        delta = e2l * math.log(10.0) / k**2
        _, x0 = counterexample_g(lam, eps)
        ts = [10.0**j for j in range(-2, -11, -1)]
        rows = counterexample_profile(lam, eps, ts)
        # (a) closed form against an oracle independent of the bisection
        for t, mp in rows:
            if mp > 0:
                u = -lambertw(-k * t * eps, -1).real / k
                ref = (e2l * u - t * x0**k) / k
                if abs(mp - ref) > 1e-12 * abs(ref):
                    offenders.append((lam, t, "closed form", mp, ref))
        # (b) every decade with both rows nonzero adds at least delta
        steps = [
            (t2, (m2 - m1) / delta)
            for (_, m1), (t2, m2) in zip(rows, rows[1:])
            if m1 > 0 and m2 > 0
        ]
        offenders += [(lam, t, "step below delta", r) for t, r in steps if r < 1.0]
        # (c) the last decade is within 5% of delta: logarithmic rate
        if not steps or steps[-1][1] > 1.05:
            offenders.append((lam, "last decade above 1.05 delta", steps[-1:]))
    elapsed = time.time() - t0
    report(
        "C6-strict-gate",
        not offenders,
        f"({len(offenders)} offending rows or decades, {elapsed:.1f}s)",
    )
    assert not offenders, f"additive per-decade gate violated: {offenders}"


def test_c6_divergence_and_bmo_finiteness():
    t0 = time.time()
    ok = True
    for lam in (0.5, 1.0):
        ts = [10.0**k for k in range(-2, -11, -1)]
        mps = [mp for _, mp in counterexample_profile(lam, 1e-3, ts)]
        nonzero = [mp for mp in mps if mp > 0]
        ok &= all(m2 > m1 for m1, m2 in zip(nonzero, nonzero[1:]))
        ok &= nonzero[-1] / nonzero[0] >= 1.5
        # closed-form anchor at 1e-12 and finite norm
        m = BesselMeasure(lam)
        b = FuncExpr.log_of_mu_density(lam)
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = float(10.0 ** rng.uniform(-4, 1))
            bb = a * float(10.0 ** rng.uniform(0.05, 1.5))
            B = Interval(a, bb)
            val = (b - 2.0 * lam * math.log(bb)).restrict(B).abs().integrate(B, dmu(m))
            ref = log_mu_oscillation_endpoint_form(lam, B)
            ok &= abs(val - ref) <= 1e-12 * abs(ref)
        norm = bmo_triangle_norm(b, m, IntervalFamily.standard(10, seed=6)).norm_estimate
        ok &= math.isfinite(norm) and norm > 0
    elapsed = time.time() - t0
    report("C6-divergence+BMO", ok and elapsed < 60.0, f"({elapsed:.1f}s)")
    assert ok
    assert elapsed < 60.0


# -- criterion 7: endpoint L log L scale --------------------------------------------------------


def test_c7_endpoint_llogl(tmp_path):
    t0 = time.time()
    v = run_endpoint(default_cfg("endpoint", str(tmp_path)))
    elapsed = time.time() - t0
    by_name = {c.name: c for c in v.checks}
    ok = (
        by_name["LlogL single constant"].passed
        and by_name["L1 analogue rejected"].passed
        and by_name["L1 ratio drift"].passed
        and v.passed
        and elapsed < 300.0
    )
    report("C7", ok, f"({elapsed:.1f}s)")
    assert by_name["LlogL single constant"].passed
    assert by_name["L1 analogue rejected"].passed
    assert v.passed
    assert elapsed < 300.0


# -- criterion 8: BMO battery -----------------------------------------------------------------


def test_c8_bmo_battery(tmp_path):
    t0 = time.time()
    v = run_bmo_equivalence(default_cfg("bmo-equivalence", str(tmp_path)))
    elapsed = time.time() - t0
    ok = v.passed and elapsed < 120.0
    report("C8", ok, f"({elapsed:.1f}s)")
    assert v.passed
    assert elapsed < 120.0


# -- criterion 9: layered mass bound with literal constants --------------------------------------


def test_c9_layered_mass_bound():
    t0 = time.time()
    m = BesselMeasure(1.0)
    psi = llogl(1.0)
    phi = llogl(1.0)
    assert psi.gamma_doubling == 16.0
    ok = True
    for k in (1, 2, 3):
        cubes = zero_chain([0, 2, 4, 6, 8])
        S = canonical_major_subsets(cubes, m)
        ok &= S.eta >= 1.0 - 1.0 / (2.0 * psi.gamma_doubling) - 1e-12  # 31/32-sparse
        c = 4.0**-k * psi.inverse(1.0)
        f = FuncExpr.indicator(Interval(0.0, 1.0), c)
        bands, overflow = level_sets(S.cubes, f, psi, m)
        ok &= not overflow and set(bands) == {k} and len(bands[k]) == len(S.cubes)
        for w, E in (
            (Weight.power(2.0), [Interval(0.0, 2.0**-8)]),
            (Weight.one(), [Interval(0.0, 2.0**-9), Interval(0.5, 0.75)]),
            (Weight.power(1.0), [Interval(0.0, 2.0**-4)]),
        ):
            lhs, rhs, _ = sparse_layer_mass_bound(S, f, psi, phi, w, E, m, k)
            ok &= lhs <= rhs * (1 + 1e-9)
    elapsed = time.time() - t0
    report("C9", ok and elapsed < 60.0, f"({elapsed:.1f}s)")
    assert ok
    assert elapsed < 60.0


# -- full power-sweep scenario doubles as the criterion-1 CSV artifact --------------------------


def test_power_sweep_scenario_green(tmp_path):
    v = run_power_weight_sweep(default_cfg("power-sweep", str(tmp_path)))
    assert v.passed


def test_counterexample_scenario_documents_gate(tmp_path):
    v = run_counterexample(default_cfg("counterexample", str(tmp_path)))
    gate_checks = [c for c in v.checks if "strict per-decade gate" in c.name]
    other_checks = [c for c in v.checks if "strict per-decade gate" not in c.name]
    assert all(not c.passed for c in gate_checks)
    assert all(c.passed for c in other_checks)
