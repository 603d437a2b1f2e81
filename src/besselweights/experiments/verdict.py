"""Check and verdict records for experiment scenarios."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    """One named inequality or classification outcome.

    `relation` documents how `measured` compares to `bound` ("<=", ">=",
    "ratio-band", "classified").  `passed` is the verdict; `note` carries the
    formula or protocol the check implements.
    """

    name: str
    measured: float
    bound: float
    passed: bool
    relation: str = "<="
    note: str = ""

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

    def add(self, *args, **kwargs) -> Check:
        check = Check(*args, **kwargs)
        self.checks.append(check)
        return check

    def lines(self) -> list[str]:
        out = [f"scenario {self.scenario}: {'PASS' if self.passed else 'FAIL'}"]
        out += ["  " + c.line() for c in self.checks]
        out += [f"  artifact: {a}" for a in self.artifacts]
        return out
