"""Young functions, Luxemburg norms, and the Orlicz maximal profile of a family.

A Young function is convex, increasing, and vanishes at 0.  Attached to a
Young function phi and an interval B is the Luxemburg gauge

    ||f||_{phi,B} = inf { s > 0 : (1/mu(B)) int_B phi(|f|/s) dmu <= 1 },

computed here as the s where the inner average, decreasing in s, falls to 1.
That level crossing and the inverses phi^{-1} both go through
measure.monotone_inverse, which searches in log s with a relative tolerance
only, so gauges and inverses stay accurate down to exp(-700).  The
complementary function phibar(s) = sup_t (s*t - phi(t)) is evaluated by
ternary search in log t on the concave inner function.  No closed forms are
assumed anywhere.

The endpoint estimates are driven by the scalar constant

    c_phi  = int_1^inf phi^{-1}(t) / (t^2 * log(e+t)) dt,

which admits a crisp finite/infinite dichotomy at desk scale: the integral
is probed on doubling log-windows and declared divergent when the window
increments stop decaying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    EmptyFamilyError,
    PreconditionError,
    UnboundedComplementaryError,
)
from .measure import (
    DX,
    BesselMeasure,
    FuncExpr,
    Interval,
    dmu,
    integrate_callable,
    monotone_inverse,
)

__all__ = [
    "YoungFunction",
    "identity_young",
    "llogl",
    "power_young",
    "exp_m1",
    "compose_young",
    "luxemburg_norm",
    "complementary",
    "c_phi",
    "CPhiResult",
    "orlicz_maximal_profile",
]

_LOG_T_LO, _LOG_T_HI = -700.0, 690.0  # log t searched by `complementary`; e^690 ~ 1e300


def _guarded(fn: Callable[[float], float], t: float) -> float:
    try:
        v = fn(t)
    except OverflowError:
        return math.inf
    return v if not math.isnan(v) else math.inf


@dataclass(frozen=True)
class YoungFunction:
    """Convex increasing phi: [0,inf) -> [0,inf) with phi(0) = 0.

    gamma_doubling, when set, asserts phi(4t) <= gamma_doubling * phi(t); it is
    validated on a log grid at construction, as is midpoint convexity.
    """

    fn: Callable[[float], float]
    name: str
    gamma_doubling: float | None = None
    _validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        if not self._validate:
            return
        if abs(self.fn(0.0)) > 1e-300:
            raise ValueError(f"{self.name}: phi(0) must be 0")
        grid = np.logspace(-6, 6, 25)
        for s, t in zip(grid, grid[1:]):
            mid = 0.5 * (s + t)
            lhs = _guarded(self.fn, mid)
            rhs = 0.5 * (_guarded(self.fn, s) + _guarded(self.fn, t))
            if lhs > rhs * (1 + 1e-9) + 1e-300:
                raise ValueError(f"{self.name}: midpoint convexity fails near t={mid:g}")
        if _guarded(self.fn, 2.0) < _guarded(self.fn, 1.0):
            raise ValueError(f"{self.name}: not increasing")
        if self.gamma_doubling is not None:
            if self.gamma_doubling < 1.0:
                raise ValueError("doubling constant must be >= 1")
            for t in grid:
                if _guarded(self.fn, 4 * t) > self.gamma_doubling * _guarded(self.fn, t) * (
                    1 + 1e-9
                ):
                    raise ValueError(
                        f"{self.name}: phi(4t) <= {self.gamma_doubling} phi(t) fails at t={t:g}"
                    )

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        return _guarded(self.fn, t)

    def inverse(self, y: float) -> float:
        """phi^{-1}(y): the t >= 0 where phi reaches y, by monotone_inverse."""
        if y <= 0.0:
            return 0.0
        t = monotone_inverse(self, y, 0.0, math.inf)
        if math.isinf(t):
            raise ValueError(f"{self.name}: phi stays below y={y:g} up to exp(700)")
        return t

    def is_superlinear(self) -> bool:
        """phi(t)/t -> inf; required for a finite complementary function.

        A phi(t)/t that overflows lies above every linear bound, so it counts.
        """
        r1 = self(1e12) / 1e12
        r2 = self(1e250) / 1e250
        return r2 == math.inf or r2 > 1.1 * r1


# -- built-ins ---------------------------------------------------------------


def identity_young() -> YoungFunction:
    return YoungFunction(lambda t: t, "Id", gamma_doubling=4.0)


def llogl(eps: float = 1.0) -> YoungFunction:
    """t * log(e+t)^eps for eps in (0, 1]; the L log L scale at eps = 1."""
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    gamma = 16.0 if eps == 1.0 else 4.0 * 4.0**eps
    return YoungFunction(
        lambda t: t * math.log(math.e + t) ** eps, f"LlogL^{eps:g}", gamma_doubling=gamma
    )


def power_young(p: float) -> YoungFunction:
    """t^p / p for p > 1."""
    if p <= 1.0:
        raise ValueError("power exponent must exceed 1")
    return YoungFunction(lambda t: t**p / p, f"Power({p:g})", gamma_doubling=4.0**p)


def exp_m1(rate: float = 1.0) -> YoungFunction:
    """exp(rate * t) - 1; exponential integrability scale."""
    return YoungFunction(lambda t: math.expm1(rate * t), f"ExpM1({rate:g})")


def compose_young(outer: YoungFunction, inner: YoungFunction) -> YoungFunction:
    """outer(inner(t)), composed literally with no renormalisation."""
    return YoungFunction(
        lambda t: outer(inner(t)),
        f"{outer.name}*{inner.name}",
        _validate=False,
    )


# -- complementary function ---------------------------------------------------


def complementary(phi: YoungFunction) -> YoungFunction:
    """phibar(s) = sup_{t>=0} (s*t - phi(t)), by ternary search in u = log t.

    s*t - phi(t) is concave with value 0 at t = 0, so it is unimodal in u as
    well.  The maximiser is bracketed by doubling steps of u out from t = 1,
    downward or upward, within [exp(-700), exp(690)], and the search stops
    on a width of 1e-15 in u, which is relative in t.  When the search stays
    pinned at t = exp(690), s*t - phi(t) is still rising there and phibar(s)
    is +inf, as for any overflow.

    Raises UnboundedComplementaryError when phi is not superlinear (then
    phibar jumps to +inf at finite s and callers must branch).
    """
    if not phi.is_superlinear():
        raise UnboundedComplementaryError(
            f"{phi.name} is not superlinear; complementary function is degenerate"
        )

    def bar(s: float) -> float:
        if s <= 0.0:
            return 0.0

        def h(u: float) -> float:
            t = math.exp(u)
            return s * t - phi(t)

        back, mid, d = (0.0, 1.0, 1.0) if h(1.0) >= h(0.0) else (1.0, 0.0, -1.0)
        step = 1.0
        while True:  # h(mid) >= h(back); walk on until h falls
            step *= 2.0
            ahead = min(max(mid + d * step, _LOG_T_LO), _LOG_T_HI)
            if ahead == mid or h(ahead) < h(mid):
                break
            back, mid = mid, ahead
        lo, hi = min(back, ahead), max(back, ahead)
        for _ in range(300):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if h(m1) < h(m2):
                lo = m1
            else:
                hi = m2
            if hi - lo <= 1e-15 * max(1.0, abs(lo)):
                break
        if hi == _LOG_T_HI:  # still rising at exp(690): phibar(s) overflows
            return math.inf
        return max(h(0.5 * (lo + hi)), 0.0)

    return YoungFunction(bar, f"conj({phi.name})", _validate=False)


# -- Luxemburg norm ------------------------------------------------------------


def luxemburg_norm(f: FuncExpr, phi: YoungFunction, B: Interval, m: BesselMeasure) -> float:
    """Luxemburg gauge of f on B with respect to dmu: the s where the
    decreasing mean of phi(|f|/s) falls to 1, by monotone_inverse.

    |f| is cut into its cells on B once.  The mean at each s sums
    phi(v/s) mu(cell) exactly over the constant cells, then adds one
    quadrature per other cell; an infinite phi value or an overflow makes it
    +inf."""
    g_abs = f.restrict(B).abs()  # its pieces are the cells of |f| on B
    if g_abs.is_zero():
        return 0.0
    const, curved = [], []
    for p in g_abs.pieces:
        if all(alpha == 0.0 and k == 0 for _, alpha, k in p.atoms):
            const.append((abs(p.atoms[0][0]), m.mu(Interval(p.lo, p.hi))))
        else:
            curved.append((Interval(p.lo, p.hi), p.eval))
    muB, kind = m.mu(B), dmu(m)

    def mean(s: float) -> float:
        total = 0.0
        for v, mass in const:
            phival = phi(v / s)
            if math.isinf(phival):
                return math.inf
            total += phival * mass
        try:
            for cell, g in curved:
                total += integrate_callable(lambda x: phi(abs(g(x)) / s), cell, kind, rel_tol=1e-11)
        except OverflowError:
            return math.inf
        return total / muB

    s = monotone_inverse(mean, 1.0, 0.0, math.inf, increasing=False)
    if math.isinf(s):
        raise PreconditionError("Luxemburg gauge: the mean stays above 1 up to s = exp(700)")
    return s


# -- endpoint constants ----------------------------------------------------------


@dataclass(frozen=True)
class CPhiResult:
    value: float
    finite: bool
    partial: float
    increments: tuple[float, ...]
    tail_estimate: float


_CHECKPOINTS = (1.0, 1e3, 1e6, 1e12, 1e24)  # ends of the log-doubling windows of c_phi
_DIVERGENCE_CAP = 1e6  # a partial integral above this counts as divergent
_DECAY_THRESHOLD = 0.95  # window increments decaying slower than this count as divergent


def c_phi(phi: YoungFunction) -> CPhiResult:
    """int_1^inf phi^{-1}(t) / (t^2 log(e+t)) dt with a finiteness dichotomy.

    The integrand is integrated over log-doubling windows; the integral is
    declared divergent when either the partial integral exceeds the cap or the
    window increments stop decaying (ratio >= _DECAY_THRESHOLD, which the
    borderline integrand 1/(t log t) attains with ratio 1).
    """
    # substitute t = e^u so each log window becomes a moderate smooth range
    def log_integrand(u: float) -> float:
        t = math.exp(u)
        return phi.inverse(t) / (t * math.log(math.e + t))

    increments = []
    for lo, hi in zip(_CHECKPOINTS, _CHECKPOINTS[1:]):
        increments.append(
            integrate_callable(
                log_integrand, Interval(math.log(lo), math.log(hi)), DX, rel_tol=1e-9
            )
        )
    partial = sum(increments)
    if partial > _DIVERGENCE_CAP:
        return CPhiResult(math.inf, False, partial, tuple(increments), math.inf)
    ratio = increments[-1] / increments[-2] if increments[-2] > 0 else 0.0
    if ratio >= _DECAY_THRESHOLD:
        return CPhiResult(math.inf, False, partial, tuple(increments), math.inf)
    tail = increments[-1] * ratio / (1.0 - ratio) if ratio > 0 else 0.0
    return CPhiResult(partial + tail, True, partial, tuple(increments), tail)


# -- Orlicz maximal operator -------------------------------------------------------


def orlicz_maximal_profile(
    h: FuncExpr,
    phi: YoungFunction,
    intervals: Sequence[Interval],
    m: BesselMeasure,
) -> FuncExpr:
    """The family maximal function as a piecewise-constant FuncExpr.

    Per-interval Luxemburg norms are computed once; on each cell of the
    endpoint arrangement the profile is the max over covering intervals.
    """
    if not intervals:
        raise EmptyFamilyError("empty interval family")
    return FuncExpr.envelope(intervals, [luxemburg_norm(h, phi, B, m) for B in intervals])
