"""Verification reports: named checks with the mode that ran them."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

# The default bound on a measured residual, `max_abs_coeff() <= TOL_ZERO`;
# `exppoly` keeps its own truncation constant.
TOL_ZERO = 1e-10


@dataclass
class Check:
    name: str
    passed: bool
    mode: str  # "symbolic" | "numeric" | "exact"
    error: float | None = None
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        err = f" err={self.error:.3e}" if self.error is not None else ""
        det = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name} [{self.mode}]{err}{det}"


@dataclass
class Report:
    checks: list[Check] = field(default_factory=list)

    def add(self, name, passed, mode, error=None, detail=""):
        self.checks.append(Check(name, bool(passed), mode, error, detail))

    def extend(self, other: "Report"):
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [asdict(c) for c in self.checks]}

    def __str__(self):
        return "\n".join(self.lines())
