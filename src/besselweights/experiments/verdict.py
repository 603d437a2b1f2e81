"""Check and verdict records for experiment scenarios."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

# How `measured` may stand to `bound`; a check passes exactly when its relation
# holds, so NaN fails every one.  `finite` asks 0 < measured < inf, and its
# bound is printed only.
RELATIONS = {
    "<=": operator.le,
    ">=": operator.ge,
    ">": operator.gt,
    "==": operator.eq,
    "finite": lambda measured, bound: 0.0 < measured < math.inf,
}


@dataclass(frozen=True)
class Check:
    """One named relation between a measured value and its bound; `passed`
    is whether the relation holds, and `note` carries the formula or protocol
    the check implements."""

    name: str
    measured: float
    bound: float
    passed: bool
    relation: str
    note: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: measured={self.measured:.6g} "
            f"{self.relation} bound={self.bound:.6g}"
        )


@dataclass
class Verdict:
    scenario: str
    checks: list[Check] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every check passed; a verdict with no checks checked nothing."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def add(self, name: str, measured: float, relation: str, bound: float, note: str) -> Check:
        """Record the check `measured relation bound`, which passes exactly
        when the relation holds."""
        if relation not in RELATIONS:
            raise ValueError(f"unknown relation {relation!r}; known: {', '.join(RELATIONS)}")
        passed = bool(RELATIONS[relation](measured, bound))
        check = Check(name, measured, bound, passed, relation, note)
        self.checks.append(check)
        return check

    def lines(self) -> list[str]:
        out = [f"scenario {self.scenario}: {'PASS' if self.passed else 'FAIL'}"]
        out += ["  " + c.line() for c in self.checks]
        out += [f"  artifact: {a}" for a in self.artifacts]
        return out
