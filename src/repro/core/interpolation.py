"""Dynamic interpolation: the first-level predictor (paper section 4.1).

The algorithm slices the stream of loop outputs into *phases* — maximal
runs whose slope changes stay under the tuning parameter (TP) — and, when
a phase is cut, validates its interior points against the straight line
through the phase's two endpoints.  Interior points within the acceptable
range skip re-computation; endpoints (which a line through themselves
cannot validate) and interior outliers are re-computed.

The same machine is used three ways:

* at run time inside `repro.core.manager.LoopRuntime`;
* during offline training, replayed over recorded outputs for each TP of
  the sweep (`repro.core.training`);
* for the Figure 2 motivation study (`repro.eval.motivation`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .acceptance import EPSILON, within_range


@dataclass
class Point:
    """One observed loop output."""

    index: int
    value: float

    def __deepcopy__(self, memo) -> "Point":
        return self  # never written after construction: copies share it


@dataclass
class CutEvent:
    """A completed phase, ready for validation."""

    points: List[Point]
    #: why the phase ended: "slope" (trend break), "cap" (buffer limit),
    #: or "flush" (loop ended)
    reason: str = "slope"


class PhaseSlicer:
    """The setup / extend / cut machine of Figure 5.

    ``observe`` returns a :class:`CutEvent` when the incoming point breaks
    the current trend; the breaking point then *starts the next phase*
    (Figure 5d: after the first cut, the setup stage is no longer needed).
    """

    def __init__(self, tuning_parameter: float, max_pending: int = 4096):
        self.tp = tuning_parameter
        self.max_pending = max_pending
        self._points: List[Point] = []
        self._prev_slope: Optional[float] = None
        self._last: Optional[Point] = None
        #: relative slope changes seen since the last signature window —
        #: consumed by run-time management to build context signatures.
        self.slope_changes: List[float] = []

    def __len__(self) -> int:
        return len(self._points)

    @property
    def pending(self) -> List[Point]:
        return self._points

    def set_tp(self, tp: float) -> None:
        self.tp = tp

    def observe(self, index: int, value: float) -> Optional[CutEvent]:
        point = Point(index, value)
        last = self._last

        if last is None:
            self._points = [point]
            self._last = point
            return None

        di = point.index - last.index
        slope = (value - last.value) / di if di else 0.0

        if self._prev_slope is None:
            self._points.append(point)
            self._last = point
            self._prev_slope = slope
            return None

        denom = abs(self._prev_slope)
        if denom < EPSILON:
            denom = EPSILON
        change = abs(slope - self._prev_slope) / denom
        if math.isnan(change):
            change = math.inf
        self.slope_changes.append(change)

        if change <= self.tp and len(self._points) < self.max_pending:
            self._points.append(point)
            self._last = point
            self._prev_slope = slope
            return None

        reason = "slope" if change > self.tp else "cap"
        cut = CutEvent(self._points, reason)
        # the breaking point starts the next phase
        self._points = [point]
        self._last = point
        self._prev_slope = None
        return cut

    def flush(self) -> Optional[CutEvent]:
        """End of the loop: hand back whatever is still pending."""
        if not self._points:
            return None
        cut = CutEvent(self._points, "flush")
        self._points = []
        self._last = None
        self._prev_slope = None
        return cut

    def reset(self) -> None:
        self._points = []
        self._last = None
        self._prev_slope = None
        self.slope_changes = []


def linear_prediction(first: Point, last: Point, index: int) -> float:
    """Value at *index* on the line through the phase endpoints."""
    di = last.index - first.index
    if di == 0:
        return first.value
    slope = (last.value - first.value) / di
    return first.value + slope * (index - first.index)


def validate_phase(
    cut: CutEvent,
    acceptable_range: float,
) -> Tuple[List[Point], List[Point]]:
    """Split a cut phase into (validated-by-prediction, needs-recompute).

    Endpoints always need re-computation (the line through them cannot
    witness their own integrity); interior points pass when within the
    acceptable range of the linear prediction.
    """
    points = cut.points
    if len(points) <= 2:
        return [], list(points)
    first, last = points[0], points[-1]
    skipped: List[Point] = []
    recompute: List[Point] = [first]
    for point in points[1:-1]:
        predicted = linear_prediction(first, last, point.index)
        if within_range(point.value, predicted, acceptable_range):
            skipped.append(point)
        else:
            recompute.append(point)
    recompute.append(last)
    return skipped, recompute


@dataclass
class SimulationResult:
    """Outcome of replaying the slicer over a recorded output sequence."""

    total: int
    skipped: int
    phases: int
    phase_lengths: List[int] = field(default_factory=list)

    @property
    def skip_rate(self) -> float:
        return self.skipped / self.total if self.total else 0.0


def simulate(
    values: Sequence[float],
    tuning_parameter: float,
    acceptable_range: float,
    max_pending: int = 4096,
) -> SimulationResult:
    """Replay dynamic interpolation over *values* (training's dry run:
    "we simulate the algorithm on samples without repeatedly running a real
    program")."""
    slicer = PhaseSlicer(tuning_parameter, max_pending)
    skipped = 0
    phases = 0
    lengths: List[int] = []

    def consume(cut: Optional[CutEvent]) -> None:
        nonlocal skipped, phases
        if cut is None:
            return
        good, _bad = validate_phase(cut, acceptable_range)
        skipped += len(good)
        phases += 1
        lengths.append(len(cut.points))

    for i, v in enumerate(values):
        consume(slicer.observe(i, v))
    consume(slicer.flush())
    return SimulationResult(len(values), skipped, phases, lengths)
