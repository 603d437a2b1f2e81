"""Dyadic grid on the half-line, sparse families, and layer decompositions.

Cubes are the half-open intervals [k 2^-j, (k+1) 2^-j); half-openness makes
each level tile (0, inf) exactly.  Two cubes are nested or disjoint, each has
two children, and on the half-line the grid satisfies the standard dyadic
axioms with geometric constant 1.

A family S is eta-sparse when each cube Q owns a major subset E_Q in Q with
mu(E_Q) >= eta mu(Q) and the E_Q pairwise disjoint (the disjoint variant is
what every argument here uses; it implies sparseness in the finite-overlap
sense as well).  `canonical_major_subsets` realises E_Q = Q minus the union
of next-layer family cubes inside Q, where layers peel maximal cubes off the
family repeatedly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DisjointnessError
from .measure import BesselMeasure, FuncExpr, Interval

__all__ = [
    "DyadicCube",
    "SparseFamily",
    "verify_sparse",
    "canonical_major_subsets",
    "layer_decompose",
    "level_sets",
    "random_subtree",
    "zero_chain",
    "subtract_intervals",
]


@dataclass(frozen=True, order=True)
class DyadicCube:
    """The cube [index * 2^-level, (index+1) * 2^-level)."""

    level: int
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("index must be nonnegative")

    @property
    def side(self) -> float:
        return 2.0**-self.level

    @property
    def interval(self) -> Interval:
        return Interval(self.index * self.side, (self.index + 1) * self.side)

    def parent(self) -> "DyadicCube":
        return DyadicCube(self.level - 1, self.index // 2)

    def children(self) -> tuple["DyadicCube", "DyadicCube"]:
        return (
            DyadicCube(self.level + 1, 2 * self.index),
            DyadicCube(self.level + 1, 2 * self.index + 1),
        )

    def contains(self, other: "DyadicCube") -> bool:
        if other.level < self.level:
            return False
        return other.index >> (other.level - self.level) == self.index

    def contains_point(self, x: float) -> bool:
        iv = self.interval
        return iv.a <= x < iv.b


# -- sparse families ------------------------------------------------------------


@dataclass(frozen=True)
class SparseFamily:
    """Cubes with designated pairwise-disjoint major subsets and parameter eta."""

    cubes: tuple[DyadicCube, ...]
    major_subsets: dict  # DyadicCube -> tuple[Interval, ...]
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "cubes", tuple(sorted(self.cubes)))

    def __len__(self) -> int:
        return len(self.cubes)

    def intervals(self) -> list[Interval]:
        return [Q.interval for Q in self.cubes]

    # line format: "level index etaNum etaDen lo hi [lo hi ...]"
    def to_lines(self) -> list[str]:
        frac = Fraction(self.eta).limit_denominator(2**40)
        lines = []
        for Q in self.cubes:
            parts = [str(Q.level), str(Q.index), str(frac.numerator), str(frac.denominator)]
            for iv in self.major_subsets.get(Q, ()):
                parts.append(repr(iv.a))
                parts.append(repr(iv.b))
            lines.append(" ".join(parts))
        return lines

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "SparseFamily":
        """Read the `to_lines` format; a malformed line raises ValueError
        naming its number."""
        cubes, subsets, eta = [], {}, None
        for n, line in enumerate(lines, 1):
            parts = line.split()
            if not parts:
                continue
            try:
                if len(parts) < 4 or len(parts) % 2:
                    raise ValueError("expected 'level index etaNum etaDen' and endpoint pairs")
                level, index, num, den = (int(t) for t in parts[:4])
                if den <= 0:
                    raise ValueError(f"eta denominator {den} is not positive")
                if eta is not None and num / den != eta:
                    raise ValueError(f"eta {num}/{den} differs from {eta!r} on earlier lines")
                Q, ends = DyadicCube(level, index), [float(t) for t in parts[4:]]
                if Q in subsets:
                    raise ValueError(f"cube {Q} is repeated")
                subsets[Q] = tuple(Interval(lo, hi) for lo, hi in zip(ends[::2], ends[1::2]))
            except ValueError as exc:
                raise ValueError(f"sparse family line {n}: {exc}") from None
            eta = num / den
            cubes.append(Q)
        return cls(tuple(cubes), subsets, 1.0 if eta is None else eta)


def layer_decompose(cubes: Sequence[DyadicCube]) -> tuple[tuple[DyadicCube, ...], ...]:
    """Peel maximal cubes: layer(Q) = length of the longest chain of family
    cubes strictly containing Q, so the cubes of layer v+1 are the maximal
    ones once layers <= v are removed."""
    cube_set = set(cubes)
    by_level = sorted(cube_set)  # level ascending: ancestors first
    min_level = by_level[0].level if by_level else 0
    layer_of: dict[DyadicCube, int] = {}
    for Q in by_level:
        depth = 0
        anc = Q
        while anc.level > min_level:
            anc = anc.parent()
            if anc in cube_set:
                depth = max(depth, layer_of[anc] + 1)
        layer_of[Q] = depth
    if not by_level:
        return ()
    n_layers = max(layer_of.values()) + 1
    layers: list[list[DyadicCube]] = [[] for _ in range(n_layers)]
    for Q, v in layer_of.items():
        layers[v].append(Q)
    return tuple(tuple(sorted(layer)) for layer in layers)


def subtract_intervals(base: Interval, holes: Sequence[Interval]) -> tuple[Interval, ...]:
    """base minus the union of holes, as disjoint intervals."""
    cuts = sorted(
        (max(h.a, base.a), min(h.b, base.b)) for h in holes if h.b > base.a and h.a < base.b
    )
    out, cursor = [], base.a
    for lo, hi in cuts:
        if lo > cursor:
            out.append(Interval(cursor, lo))
        cursor = max(cursor, hi)
    if cursor < base.b:
        out.append(Interval(cursor, base.b))
    return tuple(out)


def canonical_major_subsets(cubes: Sequence[DyadicCube], m: BesselMeasure) -> SparseFamily:
    """E_Q = Q minus the union of next-layer family cubes inside Q.

    The E_Q are pairwise disjoint by the layer structure; eta is the min of
    mu(E_Q)/mu(Q) as `verify_sparse` measures it (eta = 0 is allowed and
    returned)."""
    layers = layer_decompose(cubes)
    subsets: dict[DyadicCube, tuple[Interval, ...]] = {}
    for v, layer in enumerate(layers):
        next_layer = layers[v + 1] if v + 1 < len(layers) else ()
        for Q in layer:
            holes = [P.interval for P in next_layer if Q.contains(P)]
            subsets[Q] = subtract_intervals(Q.interval, holes)
    eta, _ = verify_sparse(SparseFamily(tuple(cubes), subsets, 1.0), m)
    return SparseFamily(tuple(cubes), subsets, min(eta, 1.0))


def verify_sparse(S: SparseFamily, m: BesselMeasure) -> tuple[float, DyadicCube | None]:
    """(min_Q mu(E_Q)/mu(Q), witness cube); exact disjointness check first,
    and each E_Q must lie in its Q (ValueError otherwise)."""
    tagged = []
    for Q in S.cubes:
        for iv in S.major_subsets.get(Q, ()):
            tagged.append((iv.a, iv.b, Q))
    tagged.sort()
    for (a1, b1, q1), (a2, b2, q2) in zip(tagged, tagged[1:]):
        if a2 < b1 - 1e-14 * max(1.0, abs(b1)):
            raise DisjointnessError(
                f"major subsets overlap: {q1} and {q2} share ({a2:g}, {min(b1, b2):g})",
                pair=(q1, q2),
            )
    eta_max, witness = math.inf, None
    for Q in S.cubes:
        eq = S.major_subsets.get(Q, ())
        if not all(Q.contains_point(iv.a) and iv.b <= Q.interval.b for iv in eq):
            raise ValueError(f"a major subset of {Q} is not inside it")
        ratio = sum(m.mu(iv) for iv in eq) / m.mu(Q.interval)
        if ratio < eta_max:
            eta_max, witness = ratio, Q
    return eta_max, witness


# -- level sets by Luxemburg-norm bands -------------------------------------------


def level_sets(
    cubes: Sequence[DyadicCube],
    f: FuncExpr,
    psi,
    m: BesselMeasure,
) -> tuple[dict[int, list[DyadicCube]], list[DyadicCube]]:
    """Partition cubes by bands 4^{-k-1} < ||f||_{psi,Q} <= 4^{-k}, k >= 0.

    Cubes with norm > 1 are returned separately; norm-zero cubes are dropped.
    """
    from .orlicz import luxemburg_norm

    bands: dict[int, list[DyadicCube]] = {}
    overflow: list[DyadicCube] = []
    log4 = math.log(4.0)
    for Q in cubes:
        norm = luxemburg_norm(f, psi, Q.interval, m)
        if norm == 0.0:
            continue
        if norm > 1.0 + 1e-9:
            overflow.append(Q)
            continue
        u = max(0.0, -math.log(min(norm, 1.0)) / log4)
        k = int(math.floor(u + 1e-9))
        bands.setdefault(k, []).append(Q)
    return bands, overflow


# -- family generators --------------------------------------------------------------


def random_subtree(
    root: DyadicCube, depth: int, seed: int, keep_prob: float = 0.7
) -> list[DyadicCube]:
    """Seeded random subtree of the dyadic tree under root."""
    rng = np.random.default_rng(seed)
    out, frontier = [root], [root]
    for _ in range(depth):
        nxt = []
        for Q in frontier:
            for child in Q.children():
                if rng.uniform() < keep_prob:
                    out.append(child)
                    nxt.append(child)
        frontier = nxt
    return sorted(out)


def zero_chain(levels: Sequence[int]) -> list[DyadicCube]:
    """The chain of zero-based cubes [0, 2^-j) for the given levels."""
    return [DyadicCube(j, 0) for j in sorted(levels)]
