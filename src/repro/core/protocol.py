"""Loop-level detection/recovery protocol runtimes: REPLAY<n> and CKPT<i>.

Both families are the RSkip transform with the spatial parts off
(:func:`repro.core.rskip.transform_loops` with ``kind="replay"`` or
``"ckpt"``): the same outlined body, observe/drain/flush skeleton and
prologue, but no ``.dup`` clone, no CP version and no ``select`` —
redundancy is *temporal*, the drain re-executes the **same** outlined
body, so there is no instruction duplication anywhere:

* **REPLAY<n>** (RepTFD) — every loop iteration's inputs/outputs are
  recorded as a signature :class:`~repro.core.manager.Element`; completed
  windows of ``window`` iterations are grouped, and every *n*-th window
  is re-executed through the drain and compared exactly.  A mismatch is
  an uncorrectable detection: the runtime raises
  :class:`~repro.runtime.errors.FaultDetectedError` (detected-or-masked
  contract, fully honoured at the ``REPLAY1`` point where every window
  is replayed).

* **CKPT<i>** (Aupy/Robert/Vivien) — loop results are *buffered*, not
  stored: the store in the main path is elided and every element reaches
  memory only through a checkpoint commit, which validates the whole
  segment by re-execution first.  A mismatch triggers rollback —
  re-execute once more and majority-vote — so memory state is exactly
  the fault-free one (exactly-masked contract).  The live commit
  interval shrinks below *i* when the RSkip predictor's fault-likelihood
  signal (:class:`~repro.core.manager.FaultLikelihoodSignal`) rises:
  fault prediction steering checkpoint frequency is exactly that
  paper's subject.

This module holds only the per-loop runtime objects and
:class:`ProtocolRuntime`, which is RSkip's
:class:`~repro.core.manager.LoopRuntimes` container serving the
``proto.*`` namespace.  Both execution engines — the reference
interpreter and the lane-vectorized batch engine — therefore dispatch
protocol work through their one existing intrinsic point: per-lane
intrinsic tables, detection raises retiring lanes, and state-dependent
charge divergence forking lane groups.  No engine knows scheme names.
"""
from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..ir.instructions import Opcode
from ..ir.module import Module
from ..obs.events import EXEC, RECOVERY, emit as obs_emit, enabled as obs_enabled
from ..runtime.errors import CoreDumpError, FaultDetectedError
from .manager import (
    ENQUEUE_CHARGE,
    SIGNAL_CHARGE,
    Element,
    FaultLikelihoodSignal,
    LoopRuntimes,
    ResettableLoop,
    SkipStats,
    _FETCH_CHARGE,
    _READ_CHARGE,
    _RESOLVE2_CHARGE,
    _RESOLVE_CHARGE,
    _same,
)
from .rskip import (
    PROTOCOL_KINDS,
    PROTOCOL_NS,
    RskipApplication,
    TargetLayout,
)

#: Signature-recording bookkeeping per observed element.
_RECORD_CHARGE = (Opcode.MOV, Opcode.ADD, Opcode.ICMP)

#: How hard the fault-likelihood signal compresses the commit interval:
#: at likelihood 1.0 the live interval is (1 - _SIGNAL_PRESSURE) * base.
_SIGNAL_PRESSURE = 0.75


class _ProtocolLoop(ResettableLoop):
    """State shared by both per-loop protocol runtimes."""

    def __init__(self, key: str, rmw: bool = False):
        self.key = key
        self.rmw = rmw
        self.queue: Deque[Element] = deque()
        self.current: Optional[Element] = None
        self.stats = SkipStats()
        self._enter_mark = 0

    # -- lifecycle ---------------------------------------------------------
    def enter(self) -> None:
        self.queue.clear()
        self.current = None
        self.stats.executions_pp += 1
        self._enter_mark = self.stats.elements

    def exit(self) -> None:
        if obs_enabled():
            obs_emit(
                EXEC, loop=self.key, execution=self.stats.executions_pp,
                elements=self.stats.elements - self._enter_mark, skipped=0,
            )

    # -- drain plumbing ----------------------------------------------------
    def fetch(self) -> Tuple[int, List[Opcode]]:
        if not self.queue:
            self.current = None
            return -1, list(_FETCH_CHARGE)
        self.current = self.queue.popleft()
        return self.current.index, list(_FETCH_CHARGE)

    def _require_current(self) -> Element:
        if self.current is None:
            # only a fault can steer the drain into a read before a fetch;
            # it ends the run like any other corrupted control flow
            raise CoreDumpError(f"protocol runtime {self.key}: no element fetched")
        return self.current

    def orig(self) -> Tuple[float, List[Opcode]]:
        return self._require_current().orig, list(_READ_CHARGE)

    def addr(self) -> Tuple[int, List[Opcode]]:
        return self._require_current().addr, list(_READ_CHARGE)


class ReplayLoopRuntime(_ProtocolLoop):
    """REPLAY<n> for one loop: sampled-window re-execution, abort on
    mismatch."""

    def __init__(self, key: str, sample_period: int, window: int, rmw: bool = False):
        super().__init__(key, rmw)
        if sample_period < 1:
            raise ValueError("REPLAY sample period must be >= 1")
        self.sample_period = sample_period
        self.window = max(1, window)
        self._buffer: List[Element] = []
        self._windows_seen = 0

    def enter(self) -> None:
        super().enter()
        self._buffer = []
        self._windows_seen = 0

    def fork(self) -> "ReplayLoopRuntime":
        return ReplayLoopRuntime(self.key, self.sample_period, self.window,
                                 rmw=self.rmw)

    def _close_window(self, charge: List[Opcode]) -> None:
        wid = self._windows_seen
        self._windows_seen += 1
        if wid % self.sample_period == 0:
            self.stats.phases += 1  # a replayed window
            for _ in self._buffer:
                charge.extend(ENQUEUE_CHARGE)
            self.queue.extend(self._buffer)
        self._buffer = []

    def observe(self, element: Element) -> Tuple[int, List[Opcode]]:
        self.stats.elements += 1
        charge: List[Opcode] = list(_RECORD_CHARGE)
        self._buffer.append(element)
        if len(self._buffer) >= self.window:
            self._close_window(charge)
        return len(self.queue), charge

    def flush(self) -> Tuple[int, List[Opcode]]:
        charge: List[Opcode] = []
        if self._buffer:
            self._close_window(charge)
        return len(self.queue), charge

    def resolve(self, rv: float) -> Tuple[float, List[Opcode]]:
        element = self._require_current()
        self.stats.recomputed += 1
        if _same(rv, element.value):
            return element.value, list(_RESOLVE_CHARGE)
        self.stats.recompute_mismatches += 1
        if obs_enabled():
            obs_emit(RECOVERY, loop=self.key, stage="detect",
                     index=element.index)
        raise FaultDetectedError(
            f"replay mismatch at {self.key}[{element.index}]: "
            f"recorded {element.value!r}, re-executed {rv!r}"
        )

    def need2(self) -> Tuple[int, List[Opcode]]:
        return 0, list(_READ_CHARGE)

    def resolve2(self, rv2: float) -> Tuple[float, List[Opcode]]:
        # unreachable fault-free (need2 is always 0): getting here means
        # the protocol's own control flow was corrupted, which is itself
        # a detection — REPLAY has no vote to fall back on.
        self.stats.recompute_mismatches += 1
        if obs_enabled():
            obs_emit(RECOVERY, loop=self.key, stage="detect",
                     index=self.current.index if self.current else -1)
        raise FaultDetectedError(
            f"replay control-flow anomaly at {self.key}: vote requested "
            "but REPLAY never votes"
        )


class CkptLoopRuntime(_ProtocolLoop):
    """CKPT<i> for one loop: buffered results committed at validated
    checkpoints, rollback (re-execute + vote) on mismatch."""

    def __init__(
        self,
        key: str,
        interval: int,
        rmw: bool = False,
        predictor: bool = True,
    ):
        super().__init__(key, rmw)
        if interval < 1:
            raise ValueError("CKPT interval must be >= 1")
        self.base_interval = interval
        self.signal = FaultLikelihoodSignal() if predictor else None
        self._segment: List[Element] = []
        self._rv1: Optional[float] = None
        self._need2 = False
        #: committed segment lengths (the live interval trace the
        #: EXPERIMENTS table reads out)
        self.commit_intervals: List[int] = []

    def enter(self) -> None:
        super().enter()
        self._segment = []
        self._rv1 = None
        self._need2 = False
        if self.signal is not None:
            self.signal.reset()

    def fork(self) -> "CkptLoopRuntime":
        return CkptLoopRuntime(self.key, self.base_interval, rmw=self.rmw,
                               predictor=self.signal is not None)

    def live_interval(self) -> int:
        """The current commit interval: the base, compressed by the
        fault-likelihood signal (more mispredictions -> commit sooner,
        so less work is at risk between checkpoints)."""
        if self.signal is None:
            return self.base_interval
        rate = self.signal.likelihood()
        if rate <= 0.0:
            return self.base_interval
        shrunk = int(self.base_interval * (1.0 - _SIGNAL_PRESSURE * rate))
        return max(1, shrunk)

    def _commit_segment(self, charge: List[Opcode], adjusted: bool) -> None:
        self.stats.phases += 1  # one checkpoint
        if adjusted:
            self.stats.tp_adjustments += 1  # signal shrank the interval
        self.commit_intervals.append(len(self._segment))
        for _ in self._segment:
            charge.extend(ENQUEUE_CHARGE)
        self.queue.extend(self._segment)
        self._segment = []

    def observe(self, element: Element) -> Tuple[int, List[Opcode]]:
        self.stats.elements += 1
        charge: List[Opcode] = list(_RECORD_CHARGE)
        if self.signal is not None:
            self.signal.observe(element.value)
            charge.extend(SIGNAL_CHARGE)
        self._segment.append(element)
        live = self.live_interval()
        if len(self._segment) >= live:
            self._commit_segment(charge, adjusted=live < self.base_interval)
        return len(self.queue), charge

    def flush(self) -> Tuple[int, List[Opcode]]:
        charge: List[Opcode] = []
        if self._segment:
            # final checkpoint: whatever remains commits at loop exit
            self._commit_segment(charge, adjusted=False)
        return len(self.queue), charge

    def resolve(self, rv: float) -> Tuple[float, List[Opcode]]:
        element = self._require_current()
        self.stats.recomputed += 1
        if _same(rv, element.value):
            self._need2 = False
            return element.value, list(_RESOLVE_CHARGE)
        # recorded result and validation re-execution disagree: roll the
        # element back — one more re-execution decides by majority vote
        self.stats.recompute_mismatches += 1
        if obs_enabled():
            obs_emit(RECOVERY, loop=self.key, stage="detect",
                     index=element.index)
        self._need2 = True
        self._rv1 = rv
        return rv, list(_RESOLVE_CHARGE)

    def need2(self) -> Tuple[int, List[Opcode]]:
        return (1 if self._need2 else 0), list(_READ_CHARGE)

    def resolve2(self, rv2: float) -> Tuple[float, List[Opcode]]:
        element = self._require_current()
        rv1 = self._rv1
        self._need2 = False
        if rv1 is not None and _same(rv1, rv2):
            # both re-executions agree: the recorded value was corrupted
            self.stats.corrected_master += 1
            if obs_enabled():
                obs_emit(RECOVERY, loop=self.key, stage="vote",
                         verdict="master", index=element.index)
            return rv1, list(_RESOLVE2_CHARGE)
        if _same(element.value, rv2):
            # the first re-execution was corrupted
            self.stats.corrected_shadow += 1
            if obs_enabled():
                obs_emit(RECOVERY, loop=self.key, stage="vote",
                         verdict="shadow", index=element.index)
            return element.value, list(_RESOLVE2_CHARGE)
        self.stats.unresolved_votes += 1
        if obs_enabled():
            obs_emit(RECOVERY, loop=self.key, stage="vote",
                     verdict="unresolved", index=element.index)
        return rv2, list(_RESOLVE2_CHARGE)


class ProtocolRuntime(LoopRuntimes):
    """All protocol loop runtimes of a transformed module: the shared
    container serving ``proto.*``, plus the CKPT commit trace."""

    ns = PROTOCOL_NS

    def __init__(self, kind: str):
        if kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol kind {kind!r}")
        super().__init__()
        self.kind = kind

    def commit_intervals(self) -> List[int]:
        """Committed CKPT segment lengths across all loops, in order."""
        out: List[int] = []
        for ctx_id in sorted(self.loops):
            runtime = self.loops[ctx_id]
            if isinstance(runtime, CkptLoopRuntime):
                out.extend(runtime.commit_intervals)
        return out


def rebuild_protocol_application(
    module: Module,
    layouts: List[TargetLayout],
    kind: str,
    *,
    sample_period: int = 1,
    window: int = 4,
    interval: int = 8,
    predictor: bool = True,
) -> RskipApplication:
    """Fresh (stateful, never-cached) protocol runtime over a module the
    ``replay``/``ckpt`` pass already transformed
    (:func:`repro.core.rskip.transform_loops`), mirroring
    :func:`repro.core.rskip.rebuild_application`.

    Unlike RSkip there is no SWIFT-R skeleton pass: the whole point of
    these families is a different cost/coverage trade — only the
    outlined loop bodies are protected (temporally), the loop skeleton
    is left bare.
    """
    runtime = ProtocolRuntime(kind)
    for layout in layouts:
        if kind == "replay":
            loop: _ProtocolLoop = ReplayLoopRuntime(
                layout.key, sample_period, window, rmw=layout.rmw)
        else:
            loop = CkptLoopRuntime(
                layout.key, interval, rmw=layout.rmw, predictor=predictor)
        runtime.loops[layout.ctx_id] = loop
    return RskipApplication(module, layouts, runtime)
