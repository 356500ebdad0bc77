"""Run-time management (paper section 5) and the protected-loop runtimes.

:class:`LoopRuntimes` owns one per-loop runtime per transformed target
loop and serves the intrinsic table the transformed IR calls into.  Both
runtime-managed families share it: :class:`RskipRuntime` (one
:class:`LoopRuntime` per loop, namespace ``rskip``) and the REPLAY/CKPT
``ProtocolRuntime`` (:mod:`repro.core.protocol`, namespace ``proto``).
Every ``<ns>.*`` handler below exists in both namespaces except
``select`` and ``arg``, which only RSkip emits:

==================  ========================================================
``<ns>.select``     choose the PP or CP loop version for this execution
``<ns>.enter``      reset per-execution predictor state
``<ns>.observe``    feed one loop output (index, value, addr[, orig/args]);
                    runs phase slicing, fuzzy validation and the QoS window
``<ns>.fetch``      next element index needing re-computation, or -1
``<ns>.orig``       buffered read-modify-write original for that element
``<ns>.arg``        buffered call argument *k* for that element
``<ns>.resolve``    first re-computation result -> provisional fixed value
``<ns>.need2``      1 when the first re-computation mismatched (vote needed)
``<ns>.resolve2``   second re-computation result -> majority-voted value
``<ns>.addr``       the element's store address (commit)
``<ns>.flush``      loop ended: validate the unfinished phase
``<ns>.exit``       update QoS state (may disable predictors)
==================  ========================================================

Every handler returns ``(value, charge)`` where *charge* is the list of
opcodes accounted against the program — predictor bookkeeping is paid for,
not free (see DESIGN.md).
"""
from __future__ import annotations

import copy
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..ir.instructions import Opcode
from ..obs.events import (
    EXEC,
    PHASE_CUT,
    QOS_DISABLE,
    RECOMPUTE,
    RECOVERY,
    SKIP,
    TP_ADJUST,
    emit as obs_emit,
    enabled as obs_enabled,
)
from ..runtime.errors import CoreDumpError
from .acceptance import within_range
from .config import RSkipConfig
from .interpolation import CutEvent, PhaseSlicer, Point, validate_phase
from .memoization import MemoTable
from .signature import QoSModel, make_signature
from .temporal import TemporalPredictor

#: Slope/trend bookkeeping per observed element (Figure 5's extend test;
#: the relative test |Δslope| <= TP·|slope| is strength-reduced to a
#: multiply, as a compiler would emit it).
OBSERVE_CHARGE = (
    Opcode.FSUB, Opcode.FSUB, Opcode.FABS, Opcode.FMUL, Opcode.FCMP,
    Opcode.ADD, Opcode.MOV, Opcode.MOV,
)
#: Linear prediction + fuzzy validation per interior point at a cut.
VALIDATE_CHARGE = (
    Opcode.FMUL, Opcode.FADD, Opcode.FSUB, Opcode.FABS, Opcode.FMUL, Opcode.FCMP,
)
#: Queueing one element for re-computation.
ENQUEUE_CHARGE = (Opcode.MOV, Opcode.MOV)
#: The QoS window: signature generation and table lookup.
ADJUST_CHARGE = (Opcode.ADD, Opcode.ADD, Opcode.LOAD, Opcode.MOV)

_FETCH_CHARGE = (Opcode.LOAD, Opcode.ICMP)
_READ_CHARGE = (Opcode.LOAD,)
_RESOLVE_CHARGE = (Opcode.FCMP,)
_RESOLVE2_CHARGE = (Opcode.FCMP, Opcode.FCMP)
_SELECT_CHARGE = (Opcode.LOAD, Opcode.ICMP)
_ENTER_CHARGE = (Opcode.MOV, Opcode.MOV)

#: Loop executions the QoS disable decision looks back over.  The check
#: must track the *recent* predictor quality: a long good history must not
#: mask a predictor that stopped working, nor a bad warm-up phase condemn
#: one that has since settled.
QOS_RECENT_EXECUTIONS = 8

#: Minimum memo attempts inside the recent window before the accuracy
#: verdict is trusted (below it, the sample is too small to disable on).
MEMO_QOS_MIN_ATTEMPTS = 64


@dataclass
class Element:
    """One buffered loop output awaiting validation."""

    index: int
    value: float
    addr: int
    orig: float = 0.0
    args: Tuple[float, ...] = ()

    def __deepcopy__(self, memo) -> "Element":
        return self  # never written after construction: copies share it


@dataclass
class SkipStats:
    """Counters the evaluation reads out (skip rate, recovery activity)."""

    elements: int = 0
    skipped_interp: int = 0
    skipped_memo: int = 0
    skipped_temporal: int = 0
    recomputed: int = 0
    endpoint_recomputes: int = 0
    interp_mispredictions: int = 0
    memo_mispredictions: int = 0
    recompute_mismatches: int = 0
    corrected_master: int = 0
    corrected_shadow: int = 0
    unresolved_votes: int = 0
    phases: int = 0
    executions_pp: int = 0
    executions_cp: int = 0
    tp_adjustments: int = 0
    #: memo-table lookups, and how many found a trained cell or not
    memo_lookups: int = 0
    memo_hits: int = 0
    memo_misses: int = 0

    @property
    def skipped(self) -> int:
        return self.skipped_interp + self.skipped_memo + self.skipped_temporal

    @property
    def skip_rate(self) -> float:
        return self.skipped / self.elements if self.elements else 0.0

    def merge(self, other: "SkipStats") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def copy(self) -> "SkipStats":
        """Snapshot of the current counter values."""
        return SkipStats(**{
            name: getattr(self, name) for name in self.__dataclass_fields__
        })

    def delta(self, since: "SkipStats") -> "SkipStats":
        """Counters accumulated after *since* was snapshotted.

        Callers measuring one run of a long-lived runtime should use
        ``snapshot = runtime.total_stats()`` before the run and
        ``runtime.total_stats().delta(snapshot)`` after it, instead of
        subtracting individual cumulative counters by hand.
        """
        return SkipStats(**{
            name: getattr(self, name) - getattr(since, name)
            for name in self.__dataclass_fields__
        })


def _same(a: float, b: float) -> bool:
    """Exact comparison that treats NaN as equal to itself (the votes of
    both families: two NaN evaluations agree)."""
    return a == b or (a != a and b != b)


@dataclass
class LoopProfile:
    """Trained artifacts for one target loop (see `repro.core.training`)."""

    qos: QoSModel = field(default_factory=QoSModel)
    memo: Optional[MemoTable] = None
    default_tp: Optional[float] = None


#: Linear extrapolation + relative compare per observation fed to the
#: fault-likelihood signal (same shape as the predictor's validate step).
SIGNAL_CHARGE = (
    Opcode.FMUL, Opcode.FSUB, Opcode.FSUB, Opcode.FABS, Opcode.FMUL,
    Opcode.FCMP,
)


class FaultLikelihoodSignal:
    """The RSkip predictor repurposed as a fault-likelihood monitor.

    Each observed loop output is checked against the same linear
    extrapolation the skip predictors use (``v̂ = 2·v[-1] − v[-2]``,
    Figure 5's extend test).  A value outside the acceptable range of its
    prediction is a *misprediction* — on a smooth stream that is exactly
    the symptom a soft fault leaves, so the misprediction rate over a
    sliding window acts as the fault-likelihood signal that steers the
    CKPT<i> commit interval (Aupy/Robert/Vivien: prediction-driven
    checkpointing).  Fully deterministic in the observed value stream.
    """

    def __init__(self, tolerance: float = 0.2, window: int = 16):
        self.tolerance = tolerance
        self.window = window
        self._history: Deque[float] = deque(maxlen=2)
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self.observations = 0
        self.mispredictions = 0

    def reset(self) -> None:
        self._history.clear()
        self._outcomes.clear()
        self.observations = 0
        self.mispredictions = 0

    def charge(self) -> Tuple[Opcode, ...]:
        return SIGNAL_CHARGE

    def observe(self, value: float) -> None:
        self.observations += 1
        if len(self._history) == 2:
            predicted = 2.0 * self._history[1] - self._history[0]
            miss = not within_range(value, predicted, self.tolerance)
            self._outcomes.append(miss)
            if miss:
                self.mispredictions += 1
        self._history.append(value)

    def likelihood(self) -> float:
        """Misprediction rate over the recent window, in [0, 1]."""
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)


class ResettableLoop:
    """Base of every per-loop runtime, RSkip's and the protocols': its
    ``fork()`` builds the loop in its just-constructed state, and
    :meth:`reset` returns to that state."""

    def reset(self) -> None:
        """Restore the just-constructed state: a fresh ``fork()``'s
        attributes replace this loop's, so everything a run can mutate
        starts over while the read-only config and profile stay shared.
        Campaign trials call this so every fault lands in a
        statistically independent execution."""
        vars(self).update(vars(self.fork()))


class LoopRuntime(ResettableLoop):
    """Predictors + run-time management for one transformed loop."""

    def __init__(
        self,
        key: str,
        config: RSkipConfig,
        profile: Optional[LoopProfile] = None,
        rmw: bool = False,
    ):
        self.key = key
        self.config = config
        self.rmw = rmw
        self.profile = profile or LoopProfile()
        tp = self.profile.default_tp
        if tp is None:
            tp = config.tuning_parameter
        self.slicer = PhaseSlicer(tp, config.max_pending)
        self.payloads: List[Element] = []
        self.queue: Deque[Element] = deque()
        self.current: Optional[Element] = None
        self._rv1: Optional[float] = None
        self._need2 = False
        self.stats = SkipStats()
        self.disabled = False
        self.memo_active = (
            config.memoization and self.profile.memo is not None
        )
        self.temporal = TemporalPredictor() if config.temporal else None
        self.signatures: List[str] = []
        #: (elements, skipped) at the last ``enter`` — the per-execution
        #: delta feeds the recent-window QoS check in ``exit``.
        self._enter_mark: Tuple[int, int] = (0, 0)
        #: per-execution (elements, skipped) deltas of the most recent
        #: executions; the QoS disable decision is taken over this window.
        self._recent_execs: Deque[Tuple[int, int]] = deque(
            maxlen=QOS_RECENT_EXECUTIONS
        )
        #: (skipped_memo, memo_mispredictions) at the last ``enter``.
        self._memo_enter_mark: Tuple[int, int] = (0, 0)
        #: per-execution memo (attempts, hits) deltas of the most recent
        #: executions — the memo-QoS disable judges accuracy over this
        #: window, like the interpolation path, never whole-life counters.
        self._memo_recent: Deque[Tuple[int, int]] = deque(
            maxlen=QOS_RECENT_EXECUTIONS
        )
        #: record mode captures per-execution output traces for offline
        #: training (`repro.core.training` flips this on); each loop
        #: execution appends a fresh sublist
        self.recording: Optional[List[List[Element]]] = None

    def fork(self) -> "LoopRuntime":
        """This loop in its just-constructed state: same key, resolved
        config, rmw flag and (trained, read-only) profile."""
        return LoopRuntime(self.key, self.config, self.profile, rmw=self.rmw)

    # -- version selection & lifecycle ------------------------------------
    def select(self) -> int:
        if self.disabled:
            self.stats.executions_cp += 1
            return 0
        self.stats.executions_pp += 1
        return 1

    def enter(self) -> None:
        if self.recording is not None:
            self.recording.append([])
        if self.temporal is not None:
            self.temporal.begin_execution()
        self.slicer.reset()
        self.payloads = []
        self.queue.clear()
        self.current = None
        self._rv1 = None
        self._need2 = False
        self._enter_mark = (self.stats.elements, self.stats.skipped)
        self._memo_enter_mark = (
            self.stats.skipped_memo, self.stats.memo_mispredictions
        )

    def exit(self) -> None:
        # QoS: disable a persistently useless predictor for future runs.
        # The decision is taken over the skip rate of the most recent
        # executions, not the whole-life cumulative counters: a long good
        # history must not mask a predictor that has stopped working, and
        # a bad warm-up must not condemn one that has since settled.
        stats = self.stats
        d_elements = stats.elements - self._enter_mark[0]
        d_skipped = stats.skipped - self._enter_mark[1]
        if d_elements > 0:
            self._recent_execs.append((d_elements, d_skipped))
        recent_elements = sum(e for e, _ in self._recent_execs)
        recent_skipped = sum(s for _, s in self._recent_execs)
        if not self.disabled and recent_elements >= 4 * self.config.window:
            if recent_skipped / recent_elements < self.config.interp_min_skip:
                self.disabled = True
                if obs_enabled():
                    obs_emit(
                        QOS_DISABLE, loop=self.key, predictor="interp",
                        recent_elements=recent_elements,
                        recent_skipped=recent_skipped,
                        threshold=self.config.interp_min_skip,
                    )
        # memoization QoS "simply monitors the occurrence of misprediction
        # and disables its usage at poor run-time accuracy" (paper sec. 5).
        # Accuracy is judged over the same bounded recent window as the
        # interpolation path: a long accurate prefix must not mask a memo
        # table that a workload phase change has made stale.
        d_hits = stats.skipped_memo - self._memo_enter_mark[0]
        d_misses = stats.memo_mispredictions - self._memo_enter_mark[1]
        if d_hits + d_misses > 0:
            self._memo_recent.append((d_hits + d_misses, d_hits))
        if self.memo_active:
            recent_attempts = sum(a for a, _ in self._memo_recent)
            recent_hits = sum(h for _, h in self._memo_recent)
            if recent_attempts >= MEMO_QOS_MIN_ATTEMPTS:
                accuracy = recent_hits / recent_attempts
                if accuracy < self.config.memo_min_hit_rate:
                    self.memo_active = False
                    if obs_enabled():
                        obs_emit(
                            QOS_DISABLE, loop=self.key, predictor="memo",
                            recent_attempts=recent_attempts,
                            recent_hits=recent_hits,
                            threshold=self.config.memo_min_hit_rate,
                        )
        if obs_enabled():
            obs_emit(
                EXEC, loop=self.key,
                execution=stats.executions_pp + stats.executions_cp,
                elements=d_elements, skipped=d_skipped,
            )

    # -- the observation path ------------------------------------------------
    def observe(self, element: Element) -> Tuple[int, List[Opcode]]:
        """Feed one loop output; returns (#queued for re-computation, charge)."""
        stats = self.stats
        stats.elements += 1
        charge: List[Opcode] = list(OBSERVE_CHARGE)

        if self.recording is not None:
            if not self.recording:
                self.recording.append([])
            self.recording[-1].append(element)

        # periodic run-time management: adjust TP from the context signature
        changes = self.slicer.slope_changes
        if len(changes) >= self.config.window:
            signature = make_signature(changes, self.config.signature_bins)
            self.signatures.append(signature)
            new_tp = self.profile.qos.lookup(signature, self.slicer.tp)
            if new_tp != self.slicer.tp:
                if obs_enabled():
                    obs_emit(
                        TP_ADJUST, loop=self.key, old=self.slicer.tp,
                        new=new_tp, signature=signature,
                    )
                self.slicer.set_tp(new_tp)
            stats.tp_adjustments += 1
            self.slicer.slope_changes = []
            charge.extend(ADJUST_CHARGE)

        cut = self.slicer.observe(element.index, element.value)
        if cut is None:
            self.payloads.append(element)
            return len(self.queue), charge

        phase_payloads = self.payloads
        self.payloads = [element]
        self._process_cut(cut, phase_payloads, charge)
        return len(self.queue), charge

    def flush(self) -> Tuple[int, List[Opcode]]:
        charge: List[Opcode] = []
        cut = self.slicer.flush()
        if cut is not None:
            phase_payloads = self.payloads
            self.payloads = []
            self._process_cut(cut, phase_payloads, charge)
        return len(self.queue), charge

    def _process_cut(
        self,
        cut: CutEvent,
        payloads: List[Element],
        charge: List[Opcode],
    ) -> None:
        stats = self.stats
        stats.phases += 1
        traced = obs_enabled()
        if traced:
            mark = (stats.skipped_temporal, stats.skipped_memo,
                    stats.memo_mispredictions, stats.endpoint_recomputes,
                    len(self.queue))
        by_index = {e.index: e for e in payloads}
        skipped, recompute = validate_phase(cut, self.config.acceptable_range)

        n_interior = max(len(cut.points) - 2, 0)
        charge.extend((Opcode.FSUB, Opcode.FSUB, Opcode.FDIV))  # phase slope
        for _ in range(n_interior):
            charge.extend(VALIDATE_CHARGE)

        stats.skipped_interp += len(skipped)
        temporal = self.temporal
        if temporal is not None:
            for point in skipped:
                temporal.record(point.index, point.value)
        endpoints = {cut.points[0].index, cut.points[-1].index}
        interior_failures = sum(1 for p in recompute if p.index not in endpoints)
        stats.interp_mispredictions += interior_failures

        memo = self.profile.memo if self.memo_active else None
        for point in recompute:
            element = by_index[point.index]
            if temporal is not None:
                charge.extend(temporal.charge())
                if temporal.validate(
                    element.index, element.value, self.config.acceptable_range
                ):
                    stats.skipped_temporal += 1
                    temporal.record(element.index, element.value)
                    continue
            if memo is not None and element.args:
                charge.extend(memo.charge())
                predicted = memo.predict(element.args, stats)
                if predicted is not None and within_range(
                    element.value, predicted, self.config.acceptable_range
                ):
                    stats.skipped_memo += 1
                    if temporal is not None:
                        temporal.record(element.index, element.value)
                    continue
                stats.memo_mispredictions += 1
            if point.index in endpoints:
                stats.endpoint_recomputes += 1
            charge.extend(ENQUEUE_CHARGE)
            self.queue.append(element)

        if traced:
            d_temporal = stats.skipped_temporal - mark[0]
            d_memo = stats.skipped_memo - mark[1]
            d_memo_miss = stats.memo_mispredictions - mark[2]
            d_endpoint = stats.endpoint_recomputes - mark[3]
            queued = len(self.queue) - mark[4]
            obs_emit(
                PHASE_CUT, loop=self.key, phase=stats.phases,
                start=cut.points[0].index, end=cut.points[-1].index,
                points=len(cut.points), interior_failures=interior_failures,
                memo_misses=d_memo_miss,
            )
            for predictor, count in (
                ("interp", len(skipped)), ("temporal", d_temporal),
                ("memo", d_memo),
            ):
                if count:
                    obs_emit(SKIP, loop=self.key, phase=stats.phases,
                             predictor=predictor, count=count)
            if queued:
                obs_emit(RECOMPUTE, loop=self.key, phase=stats.phases,
                         count=queued, endpoints=d_endpoint)

    # -- the re-computation drain ---------------------------------------------
    def fetch(self) -> Tuple[int, List[Opcode]]:
        if not self.queue:
            self.current = None
            return -1, list(_FETCH_CHARGE)
        self.current = self.queue.popleft()
        self._rv1 = None
        self._need2 = False
        return self.current.index, list(_FETCH_CHARGE)

    def _require_current(self) -> Element:
        if self.current is None:
            # only a fault can steer the drain into a read before a fetch;
            # it ends the run like any other corrupted control flow
            raise CoreDumpError(f"rskip runtime {self.key}: no element fetched")
        return self.current

    def orig(self) -> Tuple[float, List[Opcode]]:
        return self._require_current().orig, list(_READ_CHARGE)

    def arg(self, k: int) -> Tuple[float, List[Opcode]]:
        element = self._require_current()
        return element.args[int(k)], list(_READ_CHARGE)

    def addr(self) -> Tuple[int, List[Opcode]]:
        return self._require_current().addr, list(_READ_CHARGE)

    def resolve(self, rv: float) -> Tuple[float, List[Opcode]]:
        element = self._require_current()
        self.stats.recomputed += 1
        if _same(rv, element.value):
            self._need2 = False
            if self.temporal is not None:
                self.temporal.record(element.index, element.value)
            return element.value, list(_RESOLVE_CHARGE)
        # mismatch: the original and the redundant copy disagree —
        # a possible transient fault; majority vote over a third evaluation
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
        if _same(rv1, rv2):
            # both re-computations agree: the original value was corrupted
            self.stats.corrected_master += 1
            if obs_enabled():
                obs_emit(RECOVERY, loop=self.key, stage="vote",
                         verdict="master", index=element.index)
            if self.temporal is not None:
                self.temporal.record(element.index, rv1)
            return rv1, list(_RESOLVE2_CHARGE)
        if _same(element.value, rv2):
            # the first re-computation was corrupted
            self.stats.corrected_shadow += 1
            if obs_enabled():
                obs_emit(RECOVERY, loop=self.key, stage="vote",
                         verdict="shadow", index=element.index)
            if self.temporal is not None:
                self.temporal.record(element.index, element.value)
            return element.value, list(_RESOLVE2_CHARGE)
        self.stats.unresolved_votes += 1
        if obs_enabled():
            obs_emit(RECOVERY, loop=self.key, stage="vote",
                     verdict="unresolved", index=element.index)
        return rv2, list(_RESOLVE2_CHARGE)


class LoopRuntimes:
    """The per-loop runtimes of one transformed module, keyed by ctx id,
    plus the ``<ns>.*`` intrinsic table the module calls into.

    Each loop object provides ``enter``/``observe``/``fetch``/``orig``/
    ``addr``/``resolve``/``need2``/``resolve2``/``flush``/``exit``,
    ``fork()``, ``reset()``, ``stats`` and ``rmw``; the family's
    semantics live in those objects, never in this container.
    """

    #: intrinsic namespace of the transformed IR (set by each family)
    ns: str

    def __init__(self):
        self.loops: Dict[int, object] = {}

    def loop(self, ctx_id: int):
        return self.loops[int(ctx_id)]

    def fork(self) -> "LoopRuntimes":
        """A runtime in the just-constructed state over the same loops:
        every loop forked, so everything a run mutates is new and forks
        run independently of this runtime and of each other — one per
        batch lane."""
        twin = copy.copy(self)
        twin.loops = {ctx_id: loop.fork() for ctx_id, loop in self.loops.items()}
        return twin

    def reset(self) -> None:
        """Reset every loop runtime to its just-constructed state."""
        for runtime in self.loops.values():
            runtime.reset()

    def snapshot(self) -> Dict[int, dict]:
        """The run state of every loop, copied: a later :meth:`restore`
        puts each loop back exactly as it is now.  Trained profiles and
        configs are read-only at run time, and buffered loop outputs
        (:class:`Element`, ``Point``) are never written after
        construction, so they are shared by reference rather than
        copied."""
        return {ctx_id: _copy_run_state(vars(loop))
                for ctx_id, loop in self.loops.items()}

    def restore(self, snapshot: Dict[int, dict]) -> None:
        """Put every loop back to a :meth:`snapshot` (which stays
        reusable: each restore installs a fresh copy)."""
        for ctx_id, state in snapshot.items():
            vars(self.loops[ctx_id]).update(_copy_run_state(state))

    def total_stats(self) -> SkipStats:
        total = SkipStats()
        for runtime in self.loops.values():
            total.merge(runtime.stats)
        return total

    def stats_delta(self, since: SkipStats) -> SkipStats:
        """Counters accumulated since a ``total_stats()`` snapshot."""
        return self.total_stats().delta(since)

    @property
    def skip_rate(self) -> float:
        return self.total_stats().skip_rate

    # -- intrinsic table ----------------------------------------------------
    def intrinsics(self) -> Dict[str, object]:
        """Handlers for both execution engines: ``fn(interp, args) ->
        (value, charge)``."""

        def enter(interp, args):
            self.loop(args[0]).enter()
            return 0, _ENTER_CHARGE

        def observe(interp, args):
            ctx, index, value, addr = args[0], args[1], args[2], args[3]
            rest = args[4:]
            runtime = self.loop(ctx)
            if runtime.rmw:
                element = Element(int(index), value, addr, orig=rest[0], args=tuple(rest[1:]))
            else:
                element = Element(int(index), value, addr, args=tuple(rest))
            return runtime.observe(element)

        def fetch(interp, args):
            return self.loop(args[0]).fetch()

        def orig(interp, args):
            return self.loop(args[0]).orig()

        def addr(interp, args):
            return self.loop(args[0]).addr()

        def resolve(interp, args):
            return self.loop(args[0]).resolve(args[1])

        def need2(interp, args):
            return self.loop(args[0]).need2()

        def resolve2(interp, args):
            return self.loop(args[0]).resolve2(args[1])

        def flush(interp, args):
            return self.loop(args[0]).flush()

        def loop_exit(interp, args):
            self.loop(args[0]).exit()
            return 0, ()

        ns = self.ns
        return {
            f"{ns}.enter": enter,
            f"{ns}.observe": observe,
            f"{ns}.fetch": fetch,
            f"{ns}.orig": orig,
            f"{ns}.addr": addr,
            f"{ns}.resolve": resolve,
            f"{ns}.need2": need2,
            f"{ns}.resolve2": resolve2,
            f"{ns}.flush": flush,
            f"{ns}.exit": loop_exit,
        }


#: loop attributes a run never writes: snapshots share them by reference
_SHARED_STATE = ("config", "profile")


def _copy_run_state(state: dict) -> dict:
    """A deep copy of a loop's attribute dict that shares its config and
    profile."""
    memo = {id(state[name]): state[name] for name in _SHARED_STATE
            if name in state}
    return _copy_fields(state, memo)


#: values a copy shares: immutable, or never written after construction
_SHARED_TYPES = frozenset({int, float, str, bool, type(None), Element, Point})
#: plain run-state classes, copied field by field as ``copy.deepcopy`` does
_FIELDWISE = frozenset({SkipStats, PhaseSlicer})


def _copy_fields(fields: Dict[str, object], memo: dict) -> Dict[str, object]:
    shared = _SHARED_TYPES
    return {name: value if type(value) in shared else _deepcopy(value, memo)
            for name, value in fields.items()}


def _deepcopy(value, memo: dict):
    """``copy.deepcopy(value, memo)``, built faster for the lists, deques,
    tuples and ``_FIELDWISE`` objects loop run state holds (aliasing kept
    through *memo*); anything else goes to ``copy.deepcopy``.  The
    caller keeps the originals alive, so no ``id`` is reused mid-copy."""
    key = id(value)
    if key in memo:
        return memo[key]
    cls = type(value)
    shared = _SHARED_TYPES
    if cls is list or cls is deque:
        new = memo[key] = [] if cls is list else deque((), value.maxlen)
        new.extend([item if type(item) in shared else _deepcopy(item, memo)
                    for item in value])
        return new
    if cls is tuple:
        items = [item if type(item) in shared else _deepcopy(item, memo)
                 for item in value]
        if key in memo:  # an item's copy reached this tuple through a cycle
            return memo[key]
        if all(map(operator.is_, items, value)):
            return value  # nothing inside needed a copy: share the tuple
        new = memo[key] = tuple(items)
        return new
    if cls in _FIELDWISE:
        new = memo[key] = cls.__new__(cls)
        vars(new).update(_copy_fields(vars(value), memo))
        return new
    return copy.deepcopy(value, memo)


class RskipRuntime(LoopRuntimes):
    """All RSkip loop runtimes of a transformed module: the shared
    container plus version selection and buffered call arguments."""

    ns = "rskip"

    def __init__(self, config: RSkipConfig):
        super().__init__()
        self.config = config

    def add_loop(
        self,
        ctx_id: int,
        key: str,
        profile: Optional[LoopProfile] = None,
        config: Optional[RSkipConfig] = None,
        rmw: bool = False,
    ) -> LoopRuntime:
        runtime = LoopRuntime(key, config or self.config, profile, rmw=rmw)
        self.loops[ctx_id] = runtime
        return runtime

    def intrinsics(self) -> Dict[str, object]:
        """The shared table plus ``rskip.select`` and ``rskip.arg``."""

        def select(interp, args):
            return self.loop(args[0]).select(), _SELECT_CHARGE

        def arg(interp, args):
            return self.loop(args[0]).arg(args[1])

        table = super().intrinsics()
        table["rskip.select"] = select
        table["rskip.arg"] = arg
        return table
