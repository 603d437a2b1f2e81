"""The Riesz kernel on the Bessel half-line and its commutator machinery.

The kernel is the angular integral

    K(x, y) = -(2 lam / pi) *
              int (x - y cos t) (sin t)^{2 lam - 1}
                  / (x^2 + y^2 - 2 x y cos t)^{lam + 1}  dt,

integrated over (0, pi).  The printed upper limit in the source formula is
infinity, but (sin t)^{2 lam - 1} is canonically defined and integrable only
on (0, pi), and the classical kernel for this operator (Muckenhoupt-Stein,
Trans. AMS 118, 1965) uses (0, pi).

The integral has a closed form.  K = (1/pi) dJ/dx, where

    J(x, y) = int_0^pi (sin t)^{2 lam - 1} (x^2 + y^2 - 2 x y cos t)^{-lam} dt
            = M^{-2 lam} B(lam, 1/2) 2F1(lam, 1/2; lam + 1/2; z)

(Gradshteyn-Ryzhik 3.665.2), with M = max(x, y), m = min(x, y), r = m/M and
z = r^2.  The contiguous relation F + (z/a) F' = 2F1(a+1, b; c; z) (DLMF 15.5)
turns the derivative into one term, and Euler's transformation (DLMF 15.8.1)
pulls out the diagonal pole.  With
pre = (2 lam / pi) B(lam, 1/2) M^{-(2 lam + 1)} / (1 - z):

    x > y:  K = -pre 2F1(-1/2, lam; lam + 1/2; z),
    x < y:  K =  pre r / (2 lam + 1) 2F1(1/2, lam; lam + 3/2; z).

Both 2F1 factors have c - a - b = 1, so they stay finite at z = 1.  The
evaluator computes 1 - z as ((M - m)/M) ((M + m)/M) from the arguments, so a
near-diagonal pair keeps full relative accuracy, and writes x y^{-2 lam - 2}
as r M^{-(2 lam + 1)}, which stays normal at large scales.  `kernel` is this
one formula, elementwise over broadcast arrays; `kernel_grid` is its grid name.

Sign structure: K(x, y) < 0 for x > y and K(x, y) > 0 for x < y.  The
series of 2F1(1/2, lam; lam + 3/2; z) has positive coefficients.  The series
of 2F1(-1/2, lam; lam + 1/2; z) has negative coefficients after the leading
1, so it decreases on [0, 1] to its Gauss value
Gamma(lam + 1/2) / (Gamma(lam + 1) Gamma(1/2)) > 0 at z = 1.

At lam = 1 the substitution u = cos t gives the elementary form

    K(x, y) = -(2/pi) [ 1/(x (x^2 - y^2)) + log((x+y)/|x-y|) / (2 x^2 y) ],

kept here only as an independent test oracle (`kernel_lambda1_closed_form`).

On-diagonal principal values are not implemented: every consumer evaluates
off the support of the integrand, which is all the surrounding analysis ever
needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bmo import median, superlevel_set
from .dyadic import subtract_intervals
from .errors import ConstructionError, PostconditionError, SupportError
from .measure import (
    BesselMeasure,
    FuncExpr,
    Interval,
    _gauss_legendre,
    monotone_inverse,
)

__all__ = [
    "RieszKernelEvaluator",
    "kernel_lambda1_closed_form",
    "SeparatedBallPair",
    "MedianSplit",
    "median_split",
    "lower_bound_check",
    "counterexample_g",
    "counterexample_inverse",
    "counterexample_profile",
]


_APPLY_REL_TOL = 1e-9  # relative accuracy of each piece of (b(x) - b) f in commutator_apply


def kernel_lambda1_closed_form(x: float, y: float) -> float:
    """Closed form at lam = 1 via the u = cos t substitution (test oracle)."""
    if x == y:
        raise SupportError("kernel is singular on the diagonal")
    return -(2.0 / math.pi) * (
        1.0 / (x * (x * x - y * y))
        + math.log((x + y) / abs(x - y)) / (2.0 * x * x * y)
    )


def _kernel(lam: float, x, y):
    """K(x, y) by the 2F1 closed form, elementwise over broadcast x != y.
    scipy is imported here, on the first call, so that runs without a kernel
    never load it."""
    from scipy.special import beta, hyp2f1

    M = np.maximum(x, y)
    m = np.minimum(x, y)
    r = m / M
    above = x > y
    one_minus_z = ((M - m) / M) * ((M + m) / M)
    pre = (2.0 * lam / math.pi) * beta(lam, 0.5) * M ** -(2.0 * lam + 1.0) / one_minus_z
    side = np.where(above, -1.0, r / (2.0 * lam + 1.0))
    F = hyp2f1(np.where(above, -0.5, 0.5), lam, lam + np.where(above, 0.5, 1.5), r * r)
    return pre * side * F


@dataclass(frozen=True)
class RieszKernelEvaluator:
    """The Riesz kernel of Bessel parameter lam, by the 2F1 closed form.

    The angular integral runs over (0, pi), where (sin t)^{2 lam - 1} is
    canonically defined; the printed infinite upper limit is read as pi.

    nodes is ignored: the closed form needs no quadrature nodes.  The field
    stays only so that callers passing it keep working.
    """

    lam: float
    nodes: int = 2048

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError("Bessel parameter must be positive")

    def kernel(self, x, y):
        """K(x, y) on broadcast x, y > 0 (float at one pair); SupportError on the diagonal."""
        X, Y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if np.any(X <= 0.0) or np.any(Y <= 0.0):
            raise ValueError("kernel arguments must be positive")
        if np.any(X == Y):
            raise SupportError("kernel is singular on the diagonal")
        K = _kernel(self.lam, X, Y)
        return float(K) if K.ndim == 0 else K

    def kernel_grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """K on the broadcast grid of xs and ys: `kernel` on arrays."""
        return self.kernel(xs, ys)

    # -- off-support application ------------------------------------------------------

    def commutator_apply(self, b: FuncExpr, f: FuncExpr, x: float) -> float:
        """int (b(x) - b(y)) K(x, y) f(y) dmu(y), x off every piece of f: each
        piece of g = (b(x) - b) f by `_gauss_legendre`, with g, K(x, .) and
        y^{2 lam} evaluated on whole panels; an unbounded piece raises ValueError."""
        if any(p.lo <= x <= p.hi for p in f.pieces):
            raise SupportError(f"evaluation point x={x:g} touches the support")
        g = (FuncExpr.constant(b(x)) - b) * f
        e = 2.0 * self.lam
        total = 0.0
        for q in g.pieces:
            cell = Interval(q.lo, q.hi)  # ValueError on an unbounded piece
            total += _gauss_legendre(
                lambda ys: FuncExpr._piece_eval_grid(q, ys) * self.kernel(x, ys) * ys**e,
                cell.a, cell.b, _APPLY_REL_TOL,
            )
        return total


# -- separated ball pairs and the kernel lower bound --------------------------------


@dataclass(frozen=True)
class SeparatedBallPair:
    """Two same-radius balls with center separation in [A1 r, A2 r], A1 >= 3."""

    B: Interval
    Btilde: Interval
    A1: float
    A2: float

    def __post_init__(self):
        if self.A1 < 3.0 or self.A2 < self.A1:
            raise ConstructionError("need 3 <= A1 <= A2")
        r = self.radius
        r2 = 0.5 * self.Btilde.length
        if abs(r - r2) > 1e-12 * r:
            raise ConstructionError("balls must share one radius")
        sep = abs(self.Btilde.midpoint - self.B.midpoint)
        if not (self.A1 * r - 1e-12 * r <= sep <= self.A2 * r + 1e-12 * r):
            raise ConstructionError(
                f"separation {sep:g} outside [{self.A1 * r:g}, {self.A2 * r:g}]"
            )
        if self.B.a <= 0.0 or self.Btilde.a <= 0.0:
            raise ConstructionError("both balls must lie strictly inside R_+")

    @property
    def radius(self) -> float:
        return 0.5 * self.B.length

    @classmethod
    def build(
        cls, center: float, radius: float, separation_factor: float, direction: int = +1
    ) -> "SeparatedBallPair":
        """The pair at separation_factor * radius, in the band A1 = 3, A2 = 12."""
        sep = separation_factor * radius
        other = center + direction * sep
        return cls(
            Interval(center - radius, center + radius),
            Interval(other - radius, other + radius),
            3.0,
            12.0,
        )


def lower_bound_check(
    e: RieszKernelEvaluator, pair: SeparatedBallPair, samples: int = 12
) -> tuple[bool, float, float]:
    """(sign constancy, min |K|, 1/mu(Btilde)) on a samples x samples grid."""
    xs = np.linspace(pair.B.a + 1e-9 * pair.radius, pair.B.b - 1e-9 * pair.radius, samples)
    ys = np.linspace(
        pair.Btilde.a + 1e-9 * pair.radius, pair.Btilde.b - 1e-9 * pair.radius, samples
    )
    grid = e.kernel_grid(xs[:, None], ys[None, :])
    signs = np.sign(grid)
    sign_constant = bool(np.all(signs == signs.flat[0]) and signs.flat[0] != 0)
    min_abs = float(np.min(np.abs(grid)))
    m = BesselMeasure(e.lam)
    return sign_constant, min_abs, 1.0 / m.mu(pair.Btilde)


# -- median split -----------------------------------------------------------------


@dataclass(frozen=True)
class MedianSplit:
    """Median-threshold split of a separated pair: F+- carry at least half of
    mu(Btilde) each; E+- partition B by the same threshold."""

    alpha: float
    Fplus: tuple[Interval, ...]
    Fminus: tuple[Interval, ...]
    Eplus: tuple[Interval, ...]
    Eminus: tuple[Interval, ...]


def median_split(b: FuncExpr, pair: SeparatedBallPair, m: BesselMeasure) -> MedianSplit:
    """Split both balls of the pair at a mu-median of b on Btilde; the closed
    sets {b >= alpha}, {b <= alpha} are complements of strict level sets."""
    alpha = median(b, pair.Btilde, m)
    Fplus = subtract_intervals(pair.Btilde, superlevel_set(-b, -alpha, pair.Btilde))
    Fminus = subtract_intervals(pair.Btilde, superlevel_set(b, alpha, pair.Btilde))
    Eminus = superlevel_set(-b, -alpha, pair.B)
    Eplus = subtract_intervals(pair.B, Eminus)
    half = 0.5 * m.mu(pair.Btilde)
    slack = 1e-9 * m.mu(pair.Btilde)
    plus = sum(m.mu(iv) for iv in Fplus)
    minus = sum(m.mu(iv) for iv in Fminus)
    if plus < half - slack or minus < half - slack:
        raise PostconditionError(
            f"median split at {alpha:g} gives F+ mass {plus:g} and F- mass "
            f"{minus:g}, below half of mu(Btilde) = {2.0 * half:g}"
        )
    return MedianSplit(alpha, Fplus, Fminus, Eplus, Eminus)


# -- the slow-logarithmic tail profile ------------------------------------------------


def counterexample_g(lam: float, epsilon: float):
    """The tail profile g(x) = eps^{2 lam} x^{-(2 lam + 1)} log(x / eps) and the
    threshold x0 = exp(1/(2 lam + 2)) past which it decreases."""
    e2l = epsilon ** (2.0 * lam)
    expo = -(2.0 * lam + 1.0)

    def g(x: float) -> float:
        return e2l * x**expo * math.log(x / epsilon)

    x0 = math.exp(1.0 / (2.0 * lam + 2.0))
    return g, x0


def counterexample_inverse(g, x0: float, t: float) -> float:
    """X_t with g(X_t) = t on the decreasing tail, so that {x > x0 : g(x) > t}
    = (x0, X_t); X_t = x0 when t >= g(x0)."""
    return monotone_inverse(g, t, x0, math.inf, increasing=False)


def counterexample_profile(
    lam: float, epsilon: float, t_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """(t, t * mu({x > x0 : g(x) > t})) rows.

    On the decreasing tail the superlevel set is (x0, g^{-1}(t)), with the
    inverse from `counterexample_inverse`.  Thresholds above g(x0) give the
    empty set and a zero product (legal).  The product grows like
    eps^{2 lam} log(1/t), i.e. without bound but only logarithmically.
    """
    if any(t <= 0 for t in t_grid):
        raise ValueError("thresholds must be positive")
    g, x0 = counterexample_g(lam, epsilon)
    m = BesselMeasure(lam)
    rows = []
    for t in t_grid:
        if t >= g(x0):
            rows.append((t, 0.0))
            continue
        X = counterexample_inverse(g, x0, t)
        rows.append((t, t * m.mu(Interval(x0, X))))
    return rows
