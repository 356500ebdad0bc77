"""Loop-level detection/recovery protocol runtimes: REPLAY<n> and CKPT<i>.

Both families reuse the RSkip transform machinery (loop detection, body
outlining, the drain loop shape) but replace spatial redundancy with
*temporal* redundancy — the re-execution calls the **same** outlined body
again, so there is no instruction duplication anywhere:

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

The transformed IR talks to the runtimes through ``intrin proto.*``
calls with the same shapes as ``rskip.*`` (the drain emitter is shared,
parameterized by namespace), so **both** execution engines — the
reference interpreter and the lane-vectorized batch engine — dispatch
protocol work through their one existing intrinsic point: per-lane
intrinsic tables, detection raises retiring lanes, and state-dependent
charge divergence forking lane groups.  No engine knows scheme names.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..analysis.patterns import detect_target_loops
from ..ir.instructions import Instr, Opcode
from ..ir.module import Module
from ..ir.types import F64, I64
from ..ir.values import Const, Value
from ..obs.events import EXEC, RECOVERY, emit as obs_emit, enabled as obs_enabled
from ..runtime.errors import CoreDumpError, FaultDetectedError
from .manager import (
    ENQUEUE_CHARGE,
    Element,
    FaultLikelihoodSignal,
    SIGNAL_CHARGE,
    SkipStats,
)
from .rskip import (
    RecomputeSpec,
    TargetLayout,
    _clone_affine,
    _emit_drain,
    _exit_label_of,
    _outline_body,
    _provenance,
    _redirect_into_select,
    RskipError,
)

#: Intrinsic namespace shared by both protocol families (the per-loop
#: handler object encodes replay-vs-ckpt semantics, not the name).
PROTOCOL_NS = "proto"

#: Function attribute marking outlined protocol bodies; the O3 oracle
#: derives its region flip scope from it (attrs round-trip through the
#: artifact cache, so a cache-hit module keeps its markers).
PROTOCOL_REGION_ATTR = "protocol-region"

#: Signature-recording bookkeeping per observed element.
_RECORD_CHARGE = (Opcode.MOV, Opcode.ADD, Opcode.ICMP)
_FETCH_CHARGE = (Opcode.LOAD, Opcode.ICMP)
_READ_CHARGE = (Opcode.LOAD,)
_RESOLVE_CHARGE = (Opcode.FCMP,)
_RESOLVE2_CHARGE = (Opcode.FCMP, Opcode.FCMP)
_ENTER_CHARGE = (Opcode.MOV, Opcode.MOV)

#: How hard the fault-likelihood signal compresses the commit interval:
#: at likelihood 1.0 the live interval is (1 - _SIGNAL_PRESSURE) * base.
_SIGNAL_PRESSURE = 0.75


def _same(a: float, b: float) -> bool:
    """Exact comparison that treats NaN as equal to itself."""
    return a == b or (a != a and b != b)


class _ProtocolLoop:
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

    def reset(self) -> None:
        self.queue.clear()
        self.current = None
        self.stats = SkipStats()
        self._enter_mark = 0

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

    def reset(self) -> None:
        super().reset()
        self._buffer = []
        self._windows_seen = 0

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
        tolerance: float = 0.2,
        signal_window: int = 16,
    ):
        super().__init__(key, rmw)
        if interval < 1:
            raise ValueError("CKPT interval must be >= 1")
        self.base_interval = interval
        self.signal = (
            FaultLikelihoodSignal(tolerance, signal_window) if predictor else None
        )
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

    def reset(self) -> None:
        super().reset()
        self._segment = []
        self._rv1 = None
        self._need2 = False
        if self.signal is not None:
            self.signal.reset()
        self.commit_intervals = []

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


class ProtocolRuntime:
    """All protocol loop runtimes of a transformed module + the
    ``proto.*`` intrinsic table (mirrors :class:`RskipRuntime`)."""

    def __init__(self, kind: str):
        if kind not in ("replay", "ckpt"):
            raise ValueError(f"unknown protocol kind {kind!r}")
        self.kind = kind
        self.loops: Dict[int, _ProtocolLoop] = {}

    def add_loop(self, ctx_id: int, loop: _ProtocolLoop) -> _ProtocolLoop:
        self.loops[ctx_id] = loop
        return loop

    def loop(self, ctx_id: int) -> _ProtocolLoop:
        return self.loops[int(ctx_id)]

    def reset(self) -> None:
        for runtime in self.loops.values():
            runtime.reset()

    def total_stats(self) -> SkipStats:
        total = SkipStats()
        for runtime in self.loops.values():
            total.merge(runtime.stats)
        return total

    def stats_delta(self, since: SkipStats) -> SkipStats:
        return self.total_stats().delta(since)

    @property
    def skip_rate(self) -> float:
        return self.total_stats().skip_rate

    def commit_intervals(self) -> List[int]:
        """Committed CKPT segment lengths across all loops, in order."""
        out: List[int] = []
        for ctx_id in sorted(self.loops):
            runtime = self.loops[ctx_id]
            if isinstance(runtime, CkptLoopRuntime):
                out.extend(runtime.commit_intervals)
        return out

    # -- intrinsic table ----------------------------------------------------
    def intrinsics(self) -> Dict[str, object]:
        """Handlers for both execution engines (same calling convention
        as ``rskip.*``: ``fn(interp, args) -> (value, charge)``)."""

        def enter(interp, args):
            self.loop(args[0]).enter()
            return 0, _ENTER_CHARGE

        def observe(interp, args):
            ctx, index, value, addr = args[0], args[1], args[2], args[3]
            rest = args[4:]
            runtime = self.loop(ctx)
            if runtime.rmw:
                element = Element(int(index), value, addr, orig=rest[0])
            else:
                element = Element(int(index), value, addr)
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

        ns = PROTOCOL_NS
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


@dataclass
class ProtocolApplication:
    """Result of applying a protocol transform to a module (duck-typed
    like :class:`RskipApplication`: ``.layouts``/``.runtime``/
    ``.intrinsics()`` are what the eval layer reads)."""

    module: Module
    layouts: List[TargetLayout]
    runtime: ProtocolRuntime
    kind: str

    def intrinsics(self) -> Dict[str, object]:
        return self.runtime.intrinsics()

    def layout_for(self, key: str) -> TargetLayout:
        for layout in self.layouts:
            if layout.key == key:
                return layout
        raise KeyError(key)


# ---------------------------------------------------------------------------
# the transform
# ---------------------------------------------------------------------------

def _transform_protocol_loop(
    module: Module,
    func,
    target,
    ctx_id: int,
    kind: str,
) -> TargetLayout:
    """Outline the target loop's body and wire it to the ``proto.*``
    runtime.  Identical skeleton to the RSkip reduction transform minus
    everything spatial: no ``.dup`` clone (the drain re-executes the
    *same* body — temporal redundancy), no CP version, no ``select``.

    For ``kind == "replay"`` the main path still stores each result
    immediately (detection-only: memory always matches the unprotected
    run); for ``kind == "ckpt"`` the main-path store is elided and every
    element reaches memory only through a checkpoint commit drain.
    """
    base = f"{func.name}.P{ctx_id}"
    ctx = Const(ctx_id, I64)
    ivar = target.ind.reg
    ns = PROTOCOL_NS

    body = _outline_body(module, func, target, f"{base}.body")
    body.attrs[PROTOCOL_REGION_ATTR] = kind

    exit_label = _exit_label_of(func, target)
    store_block = func.blocks[target.store_site[0]]
    store_term = store_block.terminator
    if store_term is None or store_term.op is not Opcode.BR:
        raise RskipError(f"{target.func_name}: store block must end in 'br'")
    latch_label = store_term.labels[0]

    # clone the address computation before the region disappears
    addr_out: List[Instr] = []
    addr_val = _clone_affine(func, target, addr_out, "")

    # remove the region (it now lives in @body)
    region_entry = target.region_entry
    for label in target.region_labels:
        func.remove_block(label)

    prov = _provenance(func)
    new_labels: List[str] = []

    def new_block(label: str):
        block = func.add_block(label)
        prov[label] = target.loop.header
        new_labels.append(label)
        return block

    # main block (keeps the region-entry label so the header is untouched)
    main = new_block(region_entry)
    for instr in addr_out:
        main.append(instr)

    call_args: List[Value] = [ivar] + list(target.live_ins)
    observe_args: List[Value] = [ctx, ivar]
    rmw = bool(target.rmw_load_sites)
    if rmw:
        orig = func.new_reg(F64, "porig")
        main.append(Instr(Opcode.LOAD, dest=orig, args=(addr_val,)))
        call_args.append(orig)
    v = func.new_reg(F64, "pv")
    main.append(Instr(Opcode.CALL, dest=v, args=tuple(call_args), callee=body.name))
    observe_args.extend((v, addr_val))
    if rmw:
        observe_args.append(orig)
    pend = func.new_reg(I64, "ppend")
    main.append(
        Instr(Opcode.INTRIN, dest=pend, args=tuple(observe_args),
              callee=f"{ns}.observe")
    )

    store_bb = new_block(f"{base}.store")
    if kind == "replay":
        store_bb.append(Instr(Opcode.STORE, args=(v, addr_val)))
    store_bb.append(Instr(Opcode.BR, labels=(latch_label,)))

    spec = RecomputeSpec(body.name, tuple(target.live_ins), rmw=rmw, ns=ns)
    drain_entry = _emit_drain(func, f"{base}.drain", ctx, spec, store_bb.label, ns=ns)
    for label in (f"{base}.drain.head", f"{base}.drain.rc",
                  f"{base}.drain.second", f"{base}.drain.commit"):
        prov[label] = target.loop.header
        new_labels.append(label)
    main.append(Instr(Opcode.CBR, args=(pend,), labels=(drain_entry, store_bb.label)))

    # flush path on loop exit: replay/commit whatever is still buffered
    flush_bb = new_block(f"{base}.flush")
    fpend = func.new_reg(I64, "pflush")
    flush_bb.append(Instr(Opcode.INTRIN, dest=fpend, args=(ctx,), callee=f"{ns}.flush"))
    exit_bb = new_block(f"{base}.pexit")
    exit_bb.append(Instr(Opcode.INTRIN, args=(ctx,), callee=f"{ns}.exit"))
    exit_bb.append(Instr(Opcode.BR, labels=(exit_label,)))
    fdrain_entry = _emit_drain(func, f"{base}.fdrain", ctx, spec, exit_bb.label, ns=ns)
    for label in (f"{base}.fdrain.head", f"{base}.fdrain.rc",
                  f"{base}.fdrain.second", f"{base}.fdrain.commit"):
        prov[label] = target.loop.header
        new_labels.append(label)
    flush_bb.append(Instr(Opcode.CBR, args=(fpend,), labels=(fdrain_entry, exit_bb.label)))

    header_term = func.blocks[target.loop.header].terminator
    header_term.labels = tuple(
        flush_bb.label if t == exit_label else t for t in header_term.labels
    )

    # per-execution runtime reset in front of the loop (no version select)
    enter_bb = new_block(f"{base}.enter")
    enter_bb.append(Instr(Opcode.INTRIN, args=(ctx,), callee=f"{ns}.enter"))
    enter_bb.append(Instr(Opcode.BR, labels=(target.loop.header,)))
    _redirect_into_select(func, target, enter_bb.label, set(new_labels))

    return TargetLayout(
        key=f"{func.name}:{target.loop.header}",
        ctx_id=ctx_id,
        mode=kind,
        rmw=rmw,
        wrapper=func.name,
        loop_labels=sorted(target.loop.blocks),
        pp_labels=new_labels,
        body=body.name,
        kind=target.kind,
    )


def _make_loop_runtime(
    kind: str,
    layout: TargetLayout,
    *,
    sample_period: int,
    window: int,
    interval: int,
    predictor: bool,
    tolerance: float,
    signal_window: int,
) -> _ProtocolLoop:
    if kind == "replay":
        return ReplayLoopRuntime(
            layout.key, sample_period, window, rmw=layout.rmw)
    return CkptLoopRuntime(
        layout.key, interval, rmw=layout.rmw, predictor=predictor,
        tolerance=tolerance, signal_window=signal_window,
    )


def apply_protocol(
    module: Module,
    kind: str,
    *,
    sample_period: int = 1,
    window: int = 4,
    interval: int = 8,
    predictor: bool = True,
    tolerance: float = 0.2,
    signal_window: int = 16,
    only: Optional[Sequence[str]] = None,
) -> ProtocolApplication:
    """Transform the module in place for REPLAY (``kind="replay"``) or
    CKPT (``kind="ckpt"``); returns the application handle.

    Unlike RSkip there is no SWIFT-R skeleton pass afterwards: the whole
    point of these families is a different cost/coverage trade — only the
    outlined loop bodies are protected (temporally), the loop skeleton is
    left bare.
    """
    layouts: List[TargetLayout] = []
    ctx_id = 0
    func_names = list(only) if only is not None else list(module.functions)
    for name in func_names:
        func = module.functions[name]
        for target in detect_target_loops(func, module):
            layouts.append(
                _transform_protocol_loop(module, func, target, ctx_id, kind))
            ctx_id += 1
    return rebuild_protocol_application(
        module, layouts, kind,
        sample_period=sample_period, window=window, interval=interval,
        predictor=predictor, tolerance=tolerance, signal_window=signal_window,
    )


def rebuild_protocol_application(
    module: Module,
    layouts: List[TargetLayout],
    kind: str,
    *,
    sample_period: int = 1,
    window: int = 4,
    interval: int = 8,
    predictor: bool = True,
    tolerance: float = 0.2,
    signal_window: int = 16,
) -> ProtocolApplication:
    """Fresh (stateful, never-cached) protocol runtime over an
    already-transformed module — the cache-hit path, mirroring
    :func:`repro.core.rskip.rebuild_application`."""
    runtime = ProtocolRuntime(kind)
    for layout in layouts:
        runtime.add_loop(
            layout.ctx_id,
            _make_loop_runtime(
                kind, layout,
                sample_period=sample_period, window=window, interval=interval,
                predictor=predictor, tolerance=tolerance,
                signal_window=signal_window,
            ),
        )
    return ProtocolApplication(module, layouts, runtime, kind)
