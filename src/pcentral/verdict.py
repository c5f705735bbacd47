"""The verdict record every checker produces.

A verdict separates the hypothesis of a statement from its conclusion:
`conclusion` is "skipped" exactly when `hypothesis` is "fail", so a corpus row
that simply does not satisfy a hypothesis can never be mistaken for a
counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["Verdict", "PASS", "FAIL", "SKIPPED"]

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass
class Verdict:
    check: str
    hypothesis: str
    conclusion: str
    witnesses: Dict[str, Any] = field(default_factory=dict)
    millis: float = 0.0

    def __post_init__(self) -> None:
        if self.hypothesis not in (PASS, FAIL):
            raise ValueError(f"bad hypothesis value {self.hypothesis!r}")
        if self.conclusion not in (PASS, FAIL, SKIPPED):
            raise ValueError(f"bad conclusion value {self.conclusion!r}")
        if (self.conclusion == SKIPPED) != (self.hypothesis == FAIL):
            raise ValueError("conclusion must be 'skipped' iff hypothesis is 'fail'")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "check": self.check,
            "hypothesis": self.hypothesis,
            "conclusion": self.conclusion,
            "witnesses": self.witnesses,
            "millis": round(self.millis, 3),
        }


def conclude(check: str, hypothesis_ok: bool, conclusion_ok: bool | None,
             witnesses: Dict[str, Any] | None = None) -> Verdict:
    """Build a verdict; conclusion_ok is ignored when the hypothesis fails."""
    if hypothesis_ok:
        concl = PASS if conclusion_ok else FAIL
    else:
        concl = SKIPPED
    return Verdict(check=check, hypothesis=PASS if hypothesis_ok else FAIL,
                   conclusion=concl, witnesses=witnesses or {})
