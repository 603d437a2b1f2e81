"""Sparse operators, their commutator forms, and certified norm bounds.

The sparse operator attached to a cube family S averages against dmu and
resums indicators:

    (A_S f)(x)   = sum_{Q in S} <f>_{mu,Q} chi_Q(x),

and, for a symbol b, the commutator-type forms put the oscillation factor
|b - b_Q| outside or inside the average:

    (A_{S,b} f)(x)  = sum_Q <f>_{mu,Q} |b(x) - b_Q| chi_Q(x),
    (A*_{S,b} f)(x) = sum_Q (1/mu(Q)) int_Q |b - b_Q| f dmu  chi_Q(x),

where b_Q is the mu-average of b on Q.  A_S output is exactly piecewise
constant on the cube-endpoint arrangement; the commutator outputs stay inside
the piecewise power-log family whenever b does (|b - b_Q| splits at its sign
changes), so all norms below are computed without sampling error.

Operator norms on L^p(w dx) are not computable; `operator_norm_lower_bound`
reports the exact Rayleigh quotient of the best witness, a certified lower
bound, which is the right direction for comparing against the theoretical
upper envelopes in the experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .dyadic import SparseFamily
from .errors import PreconditionError
from .measure import BesselMeasure, FuncExpr, Interval, Piece, dmu
from .orlicz import (
    YoungFunction,
    complementary,
    orlicz_maximal_profile,
)
from .weights import Weight

__all__ = [
    "sparse_apply",
    "oscillation_factors",
    "sparse_commutator_apply",
    "lp_norm",
    "OperatorNormEstimate",
    "operator_norm_lower_bound",
    "sparse_layer_mass_bound",
]


def sparse_apply(S: SparseFamily, f: FuncExpr, m: BesselMeasure) -> FuncExpr:
    """A_S f as an exactly piecewise-constant function.

    Each cube enters the sum as a cell, a zero average too, so the output's
    cells are the nonzero cells of the whole cube-endpoint arrangement.
    """
    return FuncExpr.sum(
        FuncExpr([Piece(Q.interval.a, Q.interval.b, ((m.average(f, Q.interval), 0.0, 0),))])
        for Q in S.cubes
    )


def oscillation_factors(
    S: SparseFamily, b: FuncExpr, m: BesselMeasure
) -> list[tuple[Interval, FuncExpr]]:
    """(Q, |b - b_Q| on Q) for each cube of S, the factor split at its sign changes."""
    return [
        (Q.interval, (b - FuncExpr.constant(m.average(b, Q.interval))).restrict(Q.interval).abs())
        for Q in S.cubes
    ]


def sparse_commutator_apply(
    factors: Sequence[tuple[Interval, FuncExpr]],
    f: FuncExpr,
    m: BesselMeasure,
    variant: str,
) -> FuncExpr:
    """A_{S,b} f (variant='left') or its mu-adjoint A*_{S,b} f (variant='adjoint'),
    from the family's `oscillation_factors`; exact within the function family."""
    if variant not in ("left", "adjoint"):
        raise ValueError("variant must be 'left' or 'adjoint'")
    terms = []
    for iv, osc in factors:
        if variant == "left":
            coef = m.average(f, iv)
            if coef != 0.0:
                terms.append(osc * coef)
        else:
            coef = (osc * f).integrate(iv, dmu(m)) / m.mu(iv)
            if coef != 0.0:
                terms.append(FuncExpr.indicator(iv, coef))
    return FuncExpr.sum(terms)


# -- norms and norm estimates -------------------------------------------------------


def lp_norm(f: FuncExpr, p: float, w: Weight, domain: Interval) -> float:
    """||f||_{L^p(w dx)} over the domain."""
    return _lp_norms(f, (p,), w, domain)[0]


def _lp_norms(f: FuncExpr, ps: Sequence[float], w: Weight, domain: Interval) -> tuple[float, ...]:
    """||f||_{L^p(w dx)} over the domain for each p of ps, from one
    `FuncExpr.lp_integrals` walk."""
    return tuple(v ** (1.0 / p) for p, v in zip(ps, f.lp_integrals(ps, w.expr, domain)))


@dataclass(frozen=True)
class OperatorNormEstimate:
    """Certified lower bound ||T f*||/||f*|| with the witness stored."""

    value: float
    test_function: FuncExpr
    p: float
    weight: Weight


def operator_norm_lower_bound(
    witnesses: Sequence[FuncExpr],
    images: Sequence[Sequence[FuncExpr]],
    ps: Sequence[float],
    w: Weight,
    domain: Interval,
) -> tuple[tuple[OperatorNormEstimate, ...], ...]:
    """For each p of ps, one estimate per operator T, given by its images
    [T f for f in witnesses]: the max over witnesses of
    ||T f||_{L^p(w dx)} / ||f||_{L^p(w dx)}.

    The caller applies each T once per witness.  Each witness and each
    image takes one `lp_integrals` walk for all the ps, and the witness
    norms serve every T.
    """
    norms = [_lp_norms(f, ps, w, domain) for f in witnesses]
    best = [[(-math.inf, None)] * len(ps) for _ in images]  # best[k][i]: (ratio, witness)
    for k, T_fs in enumerate(images):
        for f, nf, Tf in zip(witnesses, norms, T_fs, strict=True):
            if not any(n > 0.0 for n in nf):
                continue
            for i, (n, tn) in enumerate(zip(nf, _lp_norms(Tf, ps, w, domain))):
                if n > 0.0 and tn / n > best[k][i][0]:
                    best[k][i] = (tn / n, f)
    out = []
    for i, p in enumerate(ps):
        row = [b[i] for b in best]
        if any(f is None for _, f in row):
            raise PreconditionError("all witnesses have zero norm in L^p(w dx)")
        out.append(tuple(OperatorNormEstimate(value, f, p, w) for value, f in row))
    return tuple(out)


# -- layered mass bound for banded sparse families -----------------------------------


def sparse_layer_mass_bound(
    S: SparseFamily,
    f: FuncExpr,
    psi: YoungFunction,
    phi: YoungFunction,
    w: Weight,
    E: Sequence[Interval],
    m: BesselMeasure,
    k: int,
) -> tuple[float, float, dict]:
    """Both sides of the layered mass bound for a norm-banded sparse family.

    lhs = sum_{Q in S} w(E ∩ Q)          (w against dx)
    rhs = 2^k w(E)
          + (4 gamma_psi / phibar^{-1}((2 gamma_psi)^{2^k}))
            * int psi(4^k |f|) M_phi(w/mu) dmu

    The maximal operator is taken over the family's own cubes, which keeps
    the bound valid: the argument only needs M_phi(w/mu) >= ||w/mu||_{phi,Q}
    on each family cube Q.
    """
    if psi.gamma_doubling is None:
        raise PreconditionError("psi needs a declared doubling constant")
    gamma = psi.gamma_doubling
    lhs = 0.0
    for Q in S.cubes:
        for e_iv in E:
            inter = e_iv.intersect(Q.interval)
            if inter is not None:
                lhs += w.mass(inter)
    wE = sum(w.mass(e_iv) for e_iv in E)
    bar = complementary(phi)
    denom = bar.inverse((2.0 * gamma) ** (2.0**k))
    h = w.expr * FuncExpr.power(1.0, -2.0 * m.lam)  # the density w/mu
    profile = orlicz_maximal_profile(h, phi, S.intervals(), m)
    hull = _hull(S, f)
    psi_of_f = _apply_young_piecewise(psi, f.restrict(hull), 4.0**k)
    integral = (psi_of_f * profile).integrate(hull, dmu(m))
    rhs2 = 4.0 * gamma / denom * integral
    return lhs, 2.0**k * wE + rhs2, {
        "w(E)": wE,
        "denominator": denom,
        "integral": integral,
        "bottom_term": rhs2,
    }


def _hull(S: SparseFamily, f: FuncExpr) -> Interval:
    pts = [Q.interval.a for Q in S.cubes] + [Q.interval.b for Q in S.cubes]
    sb = f.support_bounds()
    if sb is not None:
        pts += [sb.a, sb.b]
    return Interval(min(pts), max(pts))


def _apply_young_piecewise(psi: YoungFunction, f: FuncExpr, scale: float) -> FuncExpr:
    """psi(scale * |f|) for piecewise-constant f, exactly, cell by cell."""
    if not f.is_piecewise_constant():
        raise PreconditionError("banded mass bound expects piecewise-constant test data")
    return FuncExpr(
        [Piece(p.lo, p.hi, ((psi(scale * abs(p.atoms[0][0])), 0.0, 0),)) for p in f.pieces]
    )
