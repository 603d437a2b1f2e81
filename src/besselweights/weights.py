"""Muckenhoupt-type weight classes on the half-line.

Two per-interval products drive everything.  For a class parameter c (so the
reference measure is nu_c = x^{2c+1} dx) and 1 < p < infty:

    modified class:   (1/nu_c(B) int_B w dt) *
                      (1/nu_c(B) int_B t^{(2c+1)p'} w^{-1/(p-1)} dt)^{p-1}

    classical class:  (1/mu(B) int_B w dmu) *
                      (1/mu(B) int_B w^{-1/(p-1)} dmu)^{p-1}

The modified class mixes Lebesgue averages of w with a power-twisted dual
average; its p = 1 member compares w(B)/nu_c(B) against the essential infimum
on B of the density ratio w(x)/x^{2c+1}, read exactly from
`FuncExpr.value_range`.

True weight constants are suprema over all intervals and are not computable;
`weight_constant` reports the exact maximum over an explicit interval family,
hence a certified lower bound.  For power weights t^alpha membership is
decidable anyway: the per-interval product is scale-invariant, the families
include zero-based intervals, and out-of-class exponents make one factor
integral diverge symbolically.  The stabilisation/divergence dichotomy built
on this is exact for the power scale.

For both two-factor products a family scan is one batched pass: each factor
integral is evaluated once over the endpoint arrays of the whole family
(`FuncExpr.integrate_many`), with values equal to the interval-by-interval
evaluation bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DivergenceError, PostconditionError
from .measure import DX, BesselMeasure, FuncExpr, Interval, IntervalEnds, _each, dmu, dnu

__all__ = [
    "Weight",
    "ApMu",
    "TildeAp",
    "TildeA1",
    "IntervalFamily",
    "WeightConstantReport",
    "tilde_ap_quantity",
    "ap_mu_quantity",
    "tilde_a1_quantity",
    "weight_constant",
    "DualPair",
    "dual_weight",
    "PowerRange",
    "power_weight_range",
    "power_dichotomy",
    "DichotomyResult",
]

_INDEX_CAP = 32  # dyadic intervals kept per level by IntervalFamily.dyadic


@dataclass(frozen=True)
class Weight:
    """A nonnegative function usable as a weight: no cell of it, cut at its
    sign changes, is negative."""

    expr: FuncExpr
    description: str = ""

    def __post_init__(self):
        for p in self.expr.pieces:
            for lo, hi, sgn in self.expr._split(p):
                if sgn < 0:
                    raise ValueError(f"weight is negative on ({lo:g}, {hi:g})")

    @classmethod
    def power(cls, alpha: float, coef: float = 1.0) -> "Weight":
        return cls(FuncExpr.power(coef, alpha), f"{coef:g} t^{alpha:g}")

    @classmethod
    def one(cls) -> "Weight":
        return cls(FuncExpr.constant(1.0), "1")

    def __call__(self, x: float) -> float:
        return self.expr(x)

    def mass(self, B: Interval) -> float:
        """w(B) = int_B w dt (Lebesgue)."""
        return self.expr.integrate(B, DX)


# -- class tags ---------------------------------------------------------------


@dataclass(frozen=True)
class ApMu:
    p: float
    lam: float  # Bessel parameter of the underlying measure

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError("classical class needs p > 1")


@dataclass(frozen=True)
class TildeAp:
    p: float
    class_lambda: float

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError("use TildeA1 for the limiting class")


@dataclass(frozen=True)
class TildeA1:
    class_lambda: float


ClassTag = ApMu | TildeAp | TildeA1


# -- interval families ----------------------------------------------------------


@dataclass(frozen=True)
class IntervalFamily:
    """A deterministic finite interval family; rule + seed reproduce it."""

    rule: str
    intervals: tuple[Interval, ...]

    def __len__(self) -> int:
        return len(self.intervals)

    @cached_property
    def ends(self) -> IntervalEnds:
        """The intervals as one batch of read-only endpoint arrays, in family
        order; every scan over the family shares it and its logs."""
        a = np.array([B.a for B in self.intervals])
        b = np.array([B.b for B in self.intervals])
        a.flags.writeable = b.flags.writeable = False
        return IntervalEnds(a, b)

    @classmethod
    def dyadic(cls, depth: int) -> "IntervalFamily":
        """Dyadic intervals of levels -depth..depth intersecting (0, 2^depth],
        with per-level index capped (the per-interval products of interest are
        scale-invariant, so low indices carry the extremal shapes)."""
        out = []
        for j in range(-depth, depth + 1):
            side = 2.0**-j
            n_fit = max(1, min(_INDEX_CAP, int(2.0 ** (depth + j))))
            for k in range(n_fit):
                out.append(Interval(k * side, (k + 1) * side))
        return cls(f"dyadic(J={depth},cap={_INDEX_CAP})", tuple(out))

    @classmethod
    def boundary_refining(cls, depth: int) -> "IntervalFamily":
        """(0, 2^-j) and (2^-j, 1): shapes that witness blow-up at the origin."""
        out = [Interval(0.0, 2.0**-j) for j in range(depth + 1)]
        out += [Interval(2.0**-j, 1.0) for j in range(1, depth + 1)]
        return cls(f"boundary(J={depth})", tuple(out))

    @classmethod
    def random(cls, n: int, seed: int, lo_exp: float = -4.0, hi_exp: float = 2.0) -> "IntervalFamily":
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            a = float(10.0 ** rng.uniform(lo_exp, hi_exp))
            length = float(10.0 ** rng.uniform(lo_exp, hi_exp))
            out.append(Interval(a, a + length))
        return cls(f"random(n={n},seed={seed})", tuple(out))

    @classmethod
    @lru_cache(maxsize=2)
    def standard(cls, depth: int, seed: int = 0, n_random: int = 50) -> "IntervalFamily":
        """dyadic + boundary-refining + seeded random; monotone in depth.

        The last two argument sets are memoised: families are immutable, so
        a repeat call returns the same object, with its endpoint arrays and
        their logs."""
        fam = (
            cls.dyadic(depth).intervals
            + cls.boundary_refining(depth).intervals
            + cls.random(n_random, seed).intervals
        )
        return cls(f"standard(J={depth},seed={seed})", fam)

    def __or__(self, other: "IntervalFamily") -> "IntervalFamily":
        return IntervalFamily(f"{self.rule}|{other.rule}", self.intervals + other.intervals)


# -- per-interval quantities ----------------------------------------------------


def _products(
    w: Weight, tag: ApMu | TildeAp, ends: IntervalEnds
) -> tuple[np.ndarray, np.ndarray]:
    """The two-factor product of `tag` on every interval of the batch:
    (values, divergent).

    Each factor integral runs once over all the intervals, through
    `FuncExpr.integrate_many`; the reference mass is kept on the batch
    (`IntervalEnds.mass`), so every later scan of the family reuses it.  An
    interval leaves the pass at its first divergent integral (the reference
    mass, the w average, the dual average, in that order); it is flagged and
    its value is NaN.  The values equal a scalar evaluation interval by
    interval, bit for bit.
    """
    p = tag.p
    if isinstance(tag, ApMu):
        ref = kind = dmu(BesselMeasure(tag.lam))
    else:
        ref, kind = dnu(tag.class_lambda), DX
    out = np.full(len(ends), np.nan)
    mass, divergent = ends.mass(ref)
    live = np.flatnonzero(~divergent)
    first, div = w.expr.integrate_many(ends[live], kind)
    divergent[live[div]] = True
    live = live[~div]
    if not mass[live].all():  # a mass that underflows to 0, as the scalar division raises
        raise ZeroDivisionError("float division by zero")
    first = first[~div] / mass[live]
    dual = w.expr.powf(-1.0 / (p - 1.0))
    if isinstance(tag, TildeAp):
        pprime = p / (p - 1.0)
        dual = FuncExpr.power(1.0, (2.0 * tag.class_lambda + 1.0) * pprime) * dual
    second, div = dual.integrate_many(ends[live], kind)
    divergent[live[div]] = True
    live, first = live[~div], first[~div]
    out[live] = first * _each(pow, second[~div] / mass[live], p - 1.0)
    return out, divergent


def _on_interval(w: Weight, tag: ApMu | TildeAp, B: Interval) -> float:
    q, divergent = _products(w, tag, IntervalEnds(np.array([B.a]), np.array([B.b])))
    if divergent[0]:
        raise DivergenceError(f"a factor integral diverges on ({B.a:g}, {B.b:g})")
    return float(q[0])


def tilde_ap_quantity(w: Weight, p: float, class_lambda: float, B: Interval) -> float:
    """The modified two-factor product on a single interval.

    Raises DivergenceError when either factor integral is infinite, which
    witnesses non-membership via B.
    """
    return _on_interval(w, TildeAp(p, class_lambda), B)


def ap_mu_quantity(w: Weight, p: float, m: BesselMeasure, B: Interval) -> float:
    """The classical two-factor product with both averages against dmu."""
    return _on_interval(w, ApMu(p, m.lam), B)


def tilde_a1_quantity(w: Weight, class_lambda: float, B: Interval) -> float:
    """(w(B)/nu_c(B)) * ess sup_B x^{2c+1}/w(x), that is (w(B)/nu_c(B)) /
    inf_B w x^{-(2c+1)}, the infimum exact from `FuncExpr.value_range`.

    Raises DivergenceError when that infimum is 0: w vanishes somewhere on B,
    or w x^{-(2c+1)} tends to 0 at the end 0 of a zero-based B.
    """
    nu = FuncExpr.constant(1.0).integrate(B, dnu(class_lambda))
    ratio = w.mass(B) / nu
    low, _ = (w.expr * FuncExpr.power(1.0, -(2.0 * class_lambda + 1.0))).value_range(B)
    if low <= 0.0:
        raise DivergenceError(f"w / x^(2c+1) has infimum 0 on ({B.a:g}, {B.b:g})")
    return ratio / low


# -- constants over families -------------------------------------------------------


@dataclass(frozen=True)
class WeightConstantReport:
    """Maximum of the per-interval quantity over a family (a certified lower
    bound for the true constant).  `value` is +inf when some interval makes a
    factor integral diverge; `finite_value` then still carries the max over
    the non-divergent intervals for growth diagnostics."""

    value: float
    argmax_interval: Interval | None
    divergent: bool
    finite_value: float
    finite_argmax: Interval | None


def weight_constant(w: Weight, tag: ClassTag, family: IntervalFamily) -> WeightConstantReport:
    """Exact max of the per-interval quantity over the family; divergence on
    any member interval is reported as the +inf flag, not an exception.

    The argmax is the first interval of maximal quantity (a NaN quantity is
    never a maximum), and the divergence witness is the first flagged one.
    """
    if not family.intervals:
        raise ValueError("family must be nonempty")
    if isinstance(tag, TildeA1):
        q = np.full(len(family), np.nan)
        divergent = np.zeros(len(family), dtype=bool)
        for i, B in enumerate(family.intervals):
            try:
                q[i] = tilde_a1_quantity(w, tag.class_lambda, B)
            except DivergenceError:
                divergent[i] = True
    else:
        q, divergent = _products(w, tag, family.ends)
    scores = np.where(np.isnan(q), -np.inf, q)
    i = int(np.argmax(scores))
    best = float(scores[i])
    best_B = family.intervals[i] if best > -math.inf else None
    if divergent.any():
        witness = family.intervals[int(np.argmax(divergent))]
        return WeightConstantReport(math.inf, witness, True, best, best_B)
    return WeightConstantReport(best, best_B, False, best, best_B)


# -- dual weights -------------------------------------------------------------------


@dataclass(frozen=True)
class DualPair:
    sigma: Weight        # w^{1-p'}
    sigma_star: Weight   # t^{2*lam*p'} w^{1-p'}


def dual_weight(w: Weight, p: float, lam: float) -> DualPair:
    """sigma = w^{1-p'} and sigma_star = t^{2*lam*p'} * w^{1-p'}.

    Requires w to stay in the representable family under the power (single
    power atoms or piecewise-constant cells); RepresentationError otherwise.
    The exact per-interval duality swaps p and p' = p/(p-1):

        product(sigma_star, p', c, B) = product(w, p, c, B)^{1/(p-1)}

    for the class parameter c = lam - 1/2, every interval B.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    pprime = p / (p - 1.0)
    sig = w.expr.powf(1.0 - pprime)
    sig_star = FuncExpr.power(1.0, 2.0 * lam * pprime) * sig
    return DualPair(
        Weight(sig, f"({w.description})^(1-p')"),
        Weight(sig_star, f"t^{2 * lam * pprime:g} ({w.description})^(1-p')"),
    )


# -- power-weight ranges ---------------------------------------------------------------


@dataclass(frozen=True)
class PowerRange:
    lower: float
    upper: float
    upper_inclusive: bool = False

    def contains(self, alpha: float) -> bool:
        if self.upper_inclusive:
            return self.lower < alpha <= self.upper
        return self.lower < alpha < self.upper


def power_weight_range(tag: ClassTag) -> PowerRange:
    """Exact admissible exponent interval for t^alpha.

    classical: (-1-2*lam, p-1+2*lam*(p-1)), open.
    modified:  (-1, p-1+(2c+1)p), open for p > 1.
    limiting p = 1 modified class: (-1, 2c+1], the upper endpoint is the
    nu-density itself (its density ratio is identically 1), so it belongs.
    """
    if isinstance(tag, ApMu):
        return PowerRange(-1.0 - 2.0 * tag.lam, tag.p - 1.0 + 2.0 * tag.lam * (tag.p - 1.0))
    if isinstance(tag, TildeAp):
        return PowerRange(-1.0, tag.p - 1.0 + (2.0 * tag.class_lambda + 1.0) * tag.p)
    return PowerRange(-1.0, 2.0 * tag.class_lambda + 1.0, upper_inclusive=True)


# -- stabilisation / divergence dichotomy ------------------------------------------------


@dataclass(frozen=True)
class DichotomyResult:
    value_at_depth: float
    value_at_double: float
    ratio: float
    divergent: bool
    member: bool


@lru_cache(maxsize=2)
def _beyond_depth(depth: int, seed: int, n_random: int) -> IntervalFamily:
    """The distinct intervals of `standard(2 depth)` that `standard(depth)`
    lacks, in `standard(2 depth)` order.  With `standard(depth)` they make up
    `standard(2 depth)`, so its constant is the larger of the two maxima.

    Raises PostconditionError when `standard(depth)` is not contained in
    `standard(2 depth)`.
    """
    inner = IntervalFamily.standard(depth, seed, n_random)
    outer = IntervalFamily.standard(2 * depth, seed, n_random)
    seen = set(inner.intervals)
    if not seen <= set(outer.intervals):
        raise PostconditionError(f"{inner.rule} is not contained in {outer.rule}")
    extra = dict.fromkeys(B for B in outer.intervals if B not in seen)
    return IntervalFamily(f"{outer.rule}-{inner.rule}", tuple(extra))


def power_dichotomy(
    alpha: float,
    tag: ClassTag,
    depth: int,
    seed: int,
    n_random: int,
    stabilization_band: float,
) -> DichotomyResult:
    """Decide membership of t^alpha by comparing constants at depth and 2*depth.

    The depth-2J constant is the larger of the depth-J constant and the
    maximum over the intervals that only `standard(2J)` holds, so no
    interval of `standard(J)` is scanned twice, and the ratio is >= 1.
    Members stabilise (ratio under the band); non-members either trip the
    symbolic divergence flag on a zero-based interval or grow without bound.
    """
    w = Weight.power(alpha)
    extra = _beyond_depth(depth, seed, n_random)
    r1 = weight_constant(w, tag, IntervalFamily.standard(depth, seed, n_random))
    rn = weight_constant(w, tag, extra) if extra.intervals else r1
    value_at_double = max(r1.value, rn.value)
    divergent = r1.divergent or rn.divergent
    ratio = math.inf if divergent else value_at_double / r1.value
    member = (not divergent) and ratio < stabilization_band
    return DichotomyResult(r1.value, value_at_double, ratio, divergent, member)
