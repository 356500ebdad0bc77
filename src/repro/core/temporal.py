"""Temporal prediction: an extension predictor (paper future work).

The paper notes that RSkip's "applicability can be broadened with new
approximation techniques that have a wider target".  This module adds one
such technique: a *temporal* predictor that remembers the loop's outputs
from its previous execution and predicts that element *i* repeats.

It shines exactly where dynamic interpolation cannot help: loops that are
re-executed with identical or slowly-drifting live-ins (the frame loop of
conv1d, blackscholes' runs loop, iterative solvers), where the output
series may be trendless but is *stable across executions*.  It is cheaper
than approximate memoization — one indexed load and a fuzzy compare, no
quantization — so the runtime tries it before the memo table.

Disabled by default (``RSkipConfig(temporal=True)`` opts in); it is an
extension beyond the paper's evaluated system.
"""
from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.instructions import Opcode
from .acceptance import within_range

#: Charged per attempted temporal prediction: the history load plus the
#: fuzzy comparison.
TEMPORAL_CHARGE = (Opcode.LOAD, Opcode.FSUB, Opcode.FABS, Opcode.FMUL, Opcode.FCMP)


class TemporalPredictor:
    """Last-execution value table for one target loop."""

    def __init__(self, max_entries: int = 65536):
        self.max_entries = max_entries
        self._previous: Dict[int, float] = {}
        self._current: Dict[int, float] = {}
        self.predictions = 0
        self.hits = 0

    def begin_execution(self) -> None:
        """Rotate histories at loop entry: last execution becomes the
        prediction source, and a fresh table starts recording."""
        if self._current:
            self._previous = self._current
            self._current = {}

    def record(self, index: int, value: float) -> None:
        if len(self._current) < self.max_entries:
            self._current[index] = value

    def predict(self, index: int) -> Optional[float]:
        return self._previous.get(index)

    def validate(self, index: int, value: float, acceptable_range: float) -> bool:
        """True when the previous execution's value fuzzily confirms this one."""
        predicted = self.predict(index)
        if predicted is None:
            return False
        self.predictions += 1
        if within_range(value, predicted, acceptable_range):
            self.hits += 1
            return True
        return False

    def charge(self) -> List[Opcode]:
        return list(TEMPORAL_CHARGE)
