"""Per-function execution profiling.

Attaches to the interpreter (``Interpreter(..., profile=Profile())``) and
attributes dynamic instructions to functions — inclusive (with callees)
and exclusive (self only) — plus call counts.  The evaluation uses it to
verify where the protection overhead actually lands (e.g. how many
instructions the outlined ``body.dup`` re-computations consume).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class Profile:
    """Aggregated per-function counters."""

    inclusive: Dict[str, int] = field(default_factory=dict)
    exclusive: Dict[str, int] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)

    def record(self, name: str, total: int, self_steps: int) -> None:
        self.inclusive[name] = self.inclusive.get(name, 0) + total
        self.exclusive[name] = self.exclusive.get(name, 0) + self_steps
        self.calls[name] = self.calls.get(name, 0) + 1

    def share(self, name: str) -> float:
        """Exclusive share of all executed instructions."""
        total = sum(self.exclusive.values())
        return self.exclusive.get(name, 0) / total if total else 0.0
