"""Young functions, Luxemburg norms, and the Orlicz maximal profile of a family.

A Young function is convex, increasing, and vanishes at 0.  Attached to a
Young function phi and an interval B is the Luxemburg gauge

    ||f||_{phi,B} = inf { s > 0 : (1/mu(B)) int_B phi(|f|/s) dmu <= 1 },

computed here as the s where the inner average, decreasing in s, falls to 1.
That level crossing and the inverses phi^{-1} both go through
measure.monotone_inverse, which searches in log s with a relative tolerance
only, so gauges and inverses stay accurate down to exp(-700).  So does the
complementary function phibar(s) = sup_t (s*t - phi(t)): by Young's
equality it is s t - phi(t) at the t where the declared derivative phi'
reaches s, one more monotone_inverse.  The inner average
is exact on constant cells and on the power cells whose tails phi declares
(see `luxemburg_norm`); every other cell takes one guarded quadrature.

The endpoint estimates are driven by the scalar constant

    c_phi  = int_1^inf phi^{-1}(t) / (t^2 * log(e+t)) dt,

which admits a crisp finite/infinite dichotomy at desk scale: the integral
is probed on doubling log-windows, each by composite Gauss-Legendre, and
declared divergent when the window increments stop decaying.
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
    BesselMeasure,
    FuncExpr,
    Interval,
    _gauss_legendre,
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
    validated on a log grid at construction, as is midpoint convexity.  _tails
    declares closed forms for `luxemburg_norm`: pairs (gamma, R), gamma < -1,
    R(t) = t^{-gamma-1} int_t^inf u^{gamma-1} phi(u) du.  _slope declares the
    derivative phi', which `complementary` needs.
    """

    fn: Callable[[float], float]
    name: str
    gamma_doubling: float | None = None
    _validate: bool = field(default=True, repr=False)
    _tails: tuple[tuple[float, Callable[[float], float]], ...] = field(default=(), repr=False)
    _slope: Callable[[float], float] | None = field(default=None, repr=False)

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
            raise ValueError(f"{self.name}: phi stays below y={y:g} up to the largest float")
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
    return YoungFunction(lambda t: t, "Id", gamma_doubling=4.0, _slope=lambda t: 1.0)


_T_FLAT = 2.0**-1000  # both tails R below equal R(0) in floats; t is raised to it


def _llogl_tail_three_halves(t: float) -> float:
    """R(t) = t^{1/2} int_t^inf u^{-3/2} log(e+u) du for t >= 0: the antiderivative
    -2 u^{-1/2} log(e+u) - 4 e^{-1/2} arctan(sqrt(e/u)) vanishes at infinity,
    so R(t) = 2 log(e+t) + 4 arctan(v)/v, v = sqrt(e/t): two positive terms."""
    v = math.sqrt(math.e / max(t, _T_FLAT))
    return 2.0 * math.log(math.e + t) + 4.0 * math.atan(v) / v


def _llogl_tail_three(t: float) -> float:
    """R(t) = t^2 int_t^inf u^{-3} log(e+u) du for t >= 0: the antiderivative
    -log(e+u)/(2u^2) + (log1p(y) - y)/(2e^2), y = e/u, vanishes at infinity,
    so R(t) = [log(e+t) + (y - log1p(y))/y^2] / 2, y = e/t: two positive terms.
    Below y = 1/4, where y - log1p(y) cancels, the second is its series
    sum_k (-y)^k / (k + 2), whose terms past k = 26 are below 2^-54 of it."""
    y = math.e / max(t, _T_FLAT)  # finite, so y - log1p(y) is too
    q = (y - math.log1p(y)) / y / y if y >= 0.25 else sum((-y) ** k / (k + 2) for k in range(27))
    return 0.5 * (math.log(math.e + t) + q)


def llogl(eps: float = 1.0) -> YoungFunction:
    """t * log(e+t)^eps for eps in (0, 1]; the L log L scale at eps = 1,
    with the tails of gamma = -3/2 and -3 (x^-2 and x^-1 at lam = 1)."""
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    gamma = 16.0 if eps == 1.0 else 4.0 * 4.0**eps
    tails = ((-1.5, _llogl_tail_three_halves), (-3.0, _llogl_tail_three)) if eps == 1.0 else ()

    def slope(t: float) -> float:
        L = math.log(math.e + t)
        return L ** (eps - 1.0) * (L + eps * t / (math.e + t))

    return YoungFunction(
        lambda t: t * math.log(math.e + t) ** eps, f"LlogL^{eps:g}", gamma, _tails=tails,
        _slope=slope,
    )


def power_young(p: float) -> YoungFunction:
    """t^p / p for p > 1."""
    if p <= 1.0:
        raise ValueError("power exponent must exceed 1")
    return YoungFunction(
        lambda t: t**p / p, f"Power({p:g})", gamma_doubling=4.0**p, _slope=lambda t: t ** (p - 1.0)
    )


def exp_m1(rate: float = 1.0) -> YoungFunction:
    """exp(rate * t) - 1; exponential integrability scale."""
    return YoungFunction(
        lambda t: math.expm1(rate * t), f"ExpM1({rate:g})", _slope=lambda t: rate * math.exp(rate * t)
    )


def compose_young(outer: YoungFunction, inner: YoungFunction) -> YoungFunction:
    """outer(inner(t)), composed literally with no renormalisation; its
    slope is the chain rule's when both parts declare one."""

    def slope(t: float) -> float:
        return outer._slope(inner(t)) * inner._slope(t)

    return YoungFunction(
        lambda t: outer(inner(t)),
        f"{outer.name}*{inner.name}",
        _validate=False,
        _slope=slope if outer._slope and inner._slope else None,
    )


# -- complementary function ---------------------------------------------------


def complementary(phi: YoungFunction) -> YoungFunction:
    """phibar(s) = sup_{t>=0} (s*t - phi(t)) = s t* - phi(t*), where the
    declared slope phi' reaches s at t* (Young's equality; Krasnosel'skii and
    Rutickii, Convex Functions and Orlicz Spaces, 1961, ch. I).

    t* is one `monotone_inverse` of phi': 0 when phi'(0+) >= s, +inf when
    phi' stays below s up to the largest float.  When s t* overflows, s t*
    and phi(t*) are taken in numpy's longdouble, whose exponent reaches past
    the double's where the platform has an extended type (x86-64), so a
    phibar below the largest float stays finite there.  Any other overflow
    reads +inf.  The result declares phibar'(s) = t*, so it can be
    complemented again.

    Raises PreconditionError when phi declares no slope, and
    UnboundedComplementaryError when phi is not superlinear (then phibar
    jumps to +inf at finite s and callers must branch).
    """
    slope = phi._slope
    if slope is None:
        raise PreconditionError(f"{phi.name} declares no derivative; complementary needs it")
    if not phi.is_superlinear():
        raise UnboundedComplementaryError(
            f"{phi.name} is not superlinear; complementary function is degenerate"
        )

    def argmax(s: float) -> float:
        return monotone_inverse(lambda t: _guarded(slope, t), s, 0.0, math.inf) if s > 0.0 else 0.0

    def bar(s: float) -> float:
        t = argmax(s)
        st = s * t
        if math.isinf(st) and not math.isinf(t):
            t = np.longdouble(t)
            st = s * t
        pt = phi(t)  # pt <= st, but either may overflow alone
        return math.inf if np.isinf(st) or np.isinf(pt) else float(max(st - pt, 0.0))

    return YoungFunction(bar, f"conj({phi.name})", _validate=False, _slope=argmax)


# -- Luxemburg norm ------------------------------------------------------------


def luxemburg_norm(f: FuncExpr, phi: YoungFunction, B: Interval, m: BesselMeasure) -> float:
    """Luxemburg gauge of f on B with respect to dmu: the s where the
    decreasing mean of phi(|f|/s) falls to 1, by monotone_inverse.

    |f| is cut into its cells on B once.  The mean at each s sums
    phi(v/s) mu(cell) exactly over the constant cells, and over each cell
    c x^beta on (a, b), beta < 0, whose gamma = (2 lam + 1)/beta has a tail R
    declared by phi: with t = c x^beta / s it is (F(b) - F(a)) / |beta|,
    F(x) = c x^{2 lam + 1 + beta} R(t) / s, F(0) = 0, losing about
    log2(b / (b - a)) bits to the difference.  Every other cell takes one
    quadrature.  An infinite phi value, an overflow or t = inf makes the
    mean +inf."""
    g_abs = f.restrict(B).abs()  # its pieces are the cells of |f| on B
    if g_abs.is_zero():
        return 0.0
    k1, tails = 2.0 * m.lam + 1.0, dict(phi._tails)
    const, powers, curved = [], [], []
    for p in g_abs.pieces:
        (c, beta, j), *rest = p.atoms
        if all(alpha == 0.0 and k == 0 for _, alpha, k in p.atoms):
            const.append((abs(c), m.mu(Interval(p.lo, p.hi))))
        elif not rest and j == 0 and beta < 0.0 and k1 / beta in tails:
            powers.append((tails[k1 / beta], abs(c), beta, [x for x in (p.hi, p.lo) if x]))
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
            for R, c, beta, ends in powers:  # b, then a > 0
                ts = [c * x**beta / s for x in ends]
                if ts[-1] == math.inf:  # t is largest at the lower end
                    return math.inf
                F = [c * x ** (k1 + beta) * R(t) for x, t in zip(ends, ts)]
                total += (F[0] - sum(F[1:])) / (-beta * s)
            for cell, g in curved:
                total += integrate_callable(lambda x: phi(abs(g(x)) / s), cell, kind, rel_tol=1e-11)
        except OverflowError:
            return math.inf
        return total / muB

    s = monotone_inverse(mean, 1.0, 0.0, math.inf, increasing=False)
    if math.isinf(s):
        raise PreconditionError("Luxemburg gauge: the mean stays above 1 up to the largest float s")
    return s


# -- endpoint constants ----------------------------------------------------------


@dataclass(frozen=True)
class CPhiResult:
    value: float
    finite: bool


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

    increments = [
        _gauss_legendre(
            lambda us: np.array([log_integrand(u) for u in us]), math.log(lo), math.log(hi), 1e-9
        )
        for lo, hi in zip(_CHECKPOINTS, _CHECKPOINTS[1:])
    ]
    partial = sum(increments)
    ratio = increments[-1] / increments[-2] if increments[-2] > 0 else 0.0
    if partial > _DIVERGENCE_CAP or ratio >= _DECAY_THRESHOLD:
        return CPhiResult(math.inf, False)
    tail = increments[-1] * ratio / (1.0 - ratio) if ratio > 0 else 0.0
    return CPhiResult(partial + tail, True)


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
