"""Golden-prefix snapshots: fast-forwarding faulted trials.

A campaign trial injects one fault at a uniformly random in-region step
(paper section 7.2), so everything it executes before that step replays
the fault-free golden run.  :func:`capture` runs the golden execution
once on the reference interpreter and pauses it at evenly spaced
region-step thresholds — at the first block entry, at any call depth,
at or past each — recording a :class:`Snapshot` there:

* the frame stack, each caller resuming after its pending ``call``;
* memory as a diff against the initial image (every cell written so
  far, plus the allocation pointer) — a few dozen cells, not a copy;
* both step counters and the per-opcode counts;
* the stateful runtime's loop state (``LoopRuntimes.snapshot()``,
  which shares trained profiles and configs by reference);
* with an observability sink installed, how many of the golden run's
  runtime events precede it.

:meth:`GoldenPrefix.state_for` turns the latest snapshot at or before a
plan's step into a :class:`~repro.runtime.interpreter.MachineState`:
it patches the trial's fresh memory, restores the runtime and re-emits
the recorded events.  Trap, outputs, ``steps``, ``region_steps`` and
runtime statistics of the continued trial equal a from-scratch trial's.

:func:`finish` runs every faulted trial to its end and returns its
:class:`TrialRow`: a campaign trial from its snapshot state (or from
the start) and a batch lane from the state it leaves lockstep with.  It
runs the reference interpreter; with ``handoff`` (every backend but
``ref``) a :class:`HandOff` hook passes the trial to the compiled
backend once its fault has fully acted.

A campaign trial that re-joins the golden run only replays it from
there on.  Given the golden prefix its state came from, the hook keeps
the trial on the reference interpreter up to the first snapshot at or
after the point its fault has fully acted and compares it with that
snapshot, once (:meth:`GoldenPrefix.matches`): both step counters,
frame positions, every register live at each frame's resume point,
every memory cell and ``brk``, the loop runtimes' run state and their
statistics except the recovery counters (:data:`RECOVERY_COUNTERS`).
A match ends the trial with the golden run's row
(:meth:`GoldenPrefix.exit`); a mismatch hands it off.  The exit is
armed only when the golden run counted no recovery activity
(:class:`GoldenEnd`).  Batch lanes have no prefix and ``ref`` trials no
hook, so neither ends early.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from contextlib import nullcontext
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..analysis.liveness import Liveness
from ..obs.events import diverted, emit as obs_emit, enabled as obs_enabled
from ..obs.sinks import MemorySink
from .compiler import CompiledExecutor, CompiledModule
from .errors import TRIAL_TRAPS, classify_trap
from .faults import CONTROL_KINDS, FaultPlan, Region
from .interpreter import _NEVER, DecodedProgram, Interpreter, MachineState, ResumeFrame
from .memory import Memory

#: snapshots per capture: thresholds every region_steps / SNAPSHOTS steps
SNAPSHOTS = 32

#: ``SkipStats`` counters only recovery increments and nothing reads
#: back: a trial that re-joins the golden run keeps its own values
RECOVERY_COUNTERS = ("recompute_mismatches", "corrected_master",
                     "corrected_shadow", "unresolved_votes")

_MISSING = object()


class Snapshot(NamedTuple):
    """The golden execution paused at one block entry."""

    region_steps: int
    steps: int
    counts: List[int]
    frames: List[ResumeFrame]
    #: cell address -> value of every cell written since the initial image
    cells: Dict[int, object]
    brk: int
    #: ``LoopRuntimes.snapshot()`` of the stateful runtime, if any
    runtime: object
    #: golden runtime events emitted before this point
    events: int


class GoldenEnd(NamedTuple):
    """How the golden execution ended: where a trial that re-joins it ends."""

    value: object
    steps: int
    region_steps: int
    #: cell address -> final value of every cell the golden run wrote
    cells: Dict[int, object]
    brk: int
    #: loop ctx id -> the ``SkipStats`` each loop runtime ended with
    stats: Dict[int, object]


class GoldenPrefix:
    """The snapshots of one golden execution, in region-step order."""

    def __init__(self, snapshots: List[Snapshot], events: Optional[list],
                 module, end: Optional[GoldenEnd]):
        self.snapshots = snapshots
        self._marks = [snap.region_steps for snap in snapshots]
        #: the golden run's runtime events, or ``None`` when it was
        #: captured without a sink (then traced trials cannot fast-forward)
        self.events = events
        #: the module the golden run executed (its liveness is queried)
        self.module = module
        #: the golden run's end, or ``None`` when trials may not exit
        #: there (the golden run counted recovery activity)
        self.end = end
        #: the initial memory image the snapshots' diffs apply to, copied
        #: from the first memory :meth:`state_for` patches
        self._image: Optional[list] = None
        self._liveness: Dict[str, Liveness] = {}
        #: (function, label, index) -> live registers there, and those
        #: of an outer frame resuming there (without its call's dest)
        self._live: Dict[Tuple[str, str, int], Tuple[tuple, tuple]] = {}

    def state_for(self, step: int, memory: Memory,
                  runtime=None) -> Optional[MachineState]:
        """Fast-forward a trial whose fault triggers at region step
        *step*: patch its fresh *memory*, restore *runtime* and re-emit
        the golden events, all to the latest snapshot at or before
        *step*; returns the state to run from (trigger pending at
        *step*), or ``None`` when the trial must run from scratch."""
        traced = obs_enabled()
        if traced and self.events is None:
            return None
        snap = self.snapshots[bisect_right(self._marks, step) - 1]
        if self.end is not None and self._image is None:
            self._image = list(memory.cells)
        memory.patch(snap.cells, snap.brk)
        if runtime is not None:
            runtime.restore(snap.runtime)
        if traced:
            _replay(self.events[:snap.events])
        frames = [f._replace(regs=dict(f.regs)) for f in snap.frames]
        return MachineState(frames, memory, snap.steps, snap.region_steps,
                            trigger=step, counts=snap.counts)

    def after(self, region_steps: int) -> Optional[Snapshot]:
        """The first snapshot at or after *region_steps*, if any."""
        k = bisect_left(self._marks, region_steps)
        return self.snapshots[k] if k < len(self.snapshots) else None

    def matches(self, snap: Snapshot, state: MachineState, runtime=None) -> bool:
        """Whether *state* (running with *runtime*) is the golden run
        paused at *snap*, as far as the rest of the run can tell: equal
        step counters and frame positions, every register live at each
        frame's resume point defined in both and equal (an outer frame's
        pending call dest is about to be overwritten), every memory cell
        and ``brk`` equal, and each loop runtime's run state equal, its
        statistics in every field but :data:`RECOVERY_COUNTERS`.
        Registers and the cells the golden run has written compare type
        and zero sign too; the memory compares against the initial image
        :meth:`state_for` keeps, so it never matches before one."""
        if (state.steps != snap.steps or state.region_steps != snap.region_steps
                or len(state.frames) != len(snap.frames)):
            return False
        last = len(snap.frames) - 1
        for depth, (mine, gold) in enumerate(zip(state.frames, snap.frames)):
            if mine[:3] != gold[:3]:
                return False
            regs, golden_regs = mine.regs, gold.regs
            for name in self._live_at(gold, depth < last):
                value = regs.get(name, _MISSING)
                if value is _MISSING or not _same(
                        value, golden_regs.get(name, _MISSING)):
                    return False
        memory = state.memory
        if (self._image is None or memory.brk != snap.brk
                or not _same_cells(memory.cells, snap.cells, self._image)):
            return False
        if runtime is not None:
            loops = runtime.loops
            for ctx_id, golden_state in snap.runtime.items():
                if not _same_loop(vars(loops[ctx_id]), golden_state):
                    return False
        return True

    def exit(self, snap: Snapshot, memory: Memory, runtime=None) -> "TrialRow":
        """The row of a trial that :meth:`matches` *snap*: the golden run's
        value and step counters with no trap, and *memory* patched to the
        golden run's final cells.  Each loop of *runtime* ends with the
        golden run's final statistics plus the trial's own
        :data:`RECOVERY_COUNTERS` (the golden run's are zero), as the
        full run would; the rest of its run state stays as the check
        found it (every trial starts from a reset runtime).  Under
        tracing the golden events after *snap* are re-emitted, as the
        rest of the trial would emit them."""
        end = self.end
        memory.patch(end.cells, end.brk)
        if runtime is not None:
            for ctx_id, loop in runtime.loops.items():
                stats = end.stats[ctx_id].copy()
                for name in RECOVERY_COUNTERS:
                    setattr(stats, name, getattr(loop.stats, name))
                loop.stats = stats
        if obs_enabled():
            _replay(self.events[snap.events:])
        return TrialRow(end.value, end.steps, end.region_steps, None, False,
                        memory)

    def _live_at(self, frame: ResumeFrame, outer: bool) -> tuple:
        """The registers live where *frame* resumes (cached per campaign)."""
        key = (frame.func, frame.label, frame.index)
        live = self._live.get(key)
        if live is None:
            func = self.module.functions[frame.func]
            liveness = self._liveness.get(frame.func)
            if liveness is None:
                liveness = self._liveness[frame.func] = Liveness(func)
            inner = tuple(sorted(liveness.live_at(frame.label, frame.index)))
            dest = None
            if frame.index:
                dest = func.blocks[frame.label].instrs[frame.index - 1].dest
            live = self._live[key] = (
                inner,
                tuple(n for n in inner if dest is None or n != dest.name))
        return live[outer]


def _replay(events) -> None:
    """Emit recorded golden runtime events into the current sink."""
    for event in events:
        obs_emit(event.kind, event.loop, **event.payload)


def _same(a, b) -> bool:
    """Equal values of one type; a float zero's sign counts too."""
    if a is b:
        return True
    if type(a) is not type(b) or a != b:
        return False
    return (a != 0 or type(a) is not float
            or math.copysign(1.0, a) == math.copysign(1.0, b))


def _same_cells(cells: list, written: Dict[int, object], image: list) -> bool:
    """Whether *cells* hold the golden memory: *image* overwritten by
    *written*.  Those cells compare with :func:`_same`, the rest with
    ``==`` in one pass over the whole list."""
    for addr, value in written.items():
        if not _same(cells[addr], value):
            return False
    # *cells* is one trial's own memory: the image's values stand in at
    # the written cells while the whole lists compare
    own = [cells[addr] for addr in written]
    for addr in written:
        cells[addr] = image[addr]
    try:
        return cells == image
    finally:
        for addr, value in zip(written, own):
            cells[addr] = value


def _same_loop(state: dict, golden: dict) -> bool:
    """Whether a loop runtime's attributes equal a golden snapshot's
    (``LoopRuntimes.snapshot()``), its stats but for recovery counters."""
    for name, want in golden.items():
        have = state[name]
        if name == "stats":
            if any(getattr(have, field) != getattr(want, field)
                   for field in have.__dataclass_fields__
                   if field not in RECOVERY_COUNTERS):
                return False
        elif not _same_state(have, want):
            return False
    return True


def _same_state(a, b) -> bool:
    """Structural equality of run state: ``==`` where it holds, else the
    same type with equal items or, for plain objects, equal attributes."""
    if a is b or a == b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple, deque)):
        return len(a) == len(b) and all(map(_same_state, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(v, b[k])
                                            for k, v in a.items())
    if hasattr(a, "__dict__"):
        return _same_state(vars(a), vars(b))
    return False


class _WriteLog(Memory):
    """Memory that remembers the address of every cell it stores to."""

    def __init__(self, memory: Memory):
        self.__dict__.update(vars(memory))  # the same cells and layout
        self.written: set = set()

    def store(self, addr, value) -> None:
        idx = self._check(addr)
        self.cells[idx] = value
        self.written.add(idx)


class _Hook:
    """Frame export for ``Interpreter.capture`` hooks; *outer* holds
    the frames of the state a resumed run started from."""

    def __init__(self, outer: Sequence[ResumeFrame] = ()):
        self._outer = [(frame.label, frame.index) for frame in outer]
        self._sites: List[tuple] = []

    def call(self, interp: Interpreter, label: str, index: int, callee,
             vals, vts, depth: int):
        self._sites.append((label, index))
        try:
            return interp._run_function(callee, vals, vts, depth)
        finally:
            self._sites.pop()

    def _frames(self, interp: Interpreter, label: str, index: int) -> List[ResumeFrame]:
        """The frame stack, the innermost paused at (*label*, *index*)."""
        sites = self._sites
        # the outer frames still on the stack below the caller of sites[0]
        positions = (self._outer[:len(interp._frames) - 1 - len(sites)]
                     + sites + [(label, index)])
        return [ResumeFrame(func, lab, at, dict(regs))
                for func, (lab, at), regs
                in zip(interp._frame_funcs, positions, interp._frames)]


class _Capture(_Hook):
    """The interpreter hook that takes the snapshots."""

    def __init__(self, region_steps: int, runtime, memory: _WriteLog,
                 recorder: Optional[MemorySink]):
        super().__init__()
        self._thresholds = sorted({region_steps * k // SNAPSHOTS
                                   for k in range(SNAPSHOTS)})
        self.at = self._thresholds[0]
        self._runtime = runtime
        self._memory = memory
        self._recorder = recorder
        self.snapshots: List[Snapshot] = []

    def take(self, interp: Interpreter, label: str, index: int) -> int:
        """Snapshot the paused run; returns the next threshold."""
        memory = self._memory
        self.snapshots.append(Snapshot(
            interp.region_steps, interp.steps, list(interp.counts),
            self._frames(interp, label, index),
            {addr: memory.cells[addr] for addr in memory.written},
            memory.brk,
            self._runtime.snapshot() if self._runtime is not None else None,
            len(self._recorder.events) if self._recorder is not None else 0,
        ))
        thresholds = self._thresholds
        k = bisect_right(thresholds, interp.region_steps)
        self.at = thresholds[k] if k < len(thresholds) else _NEVER
        return self.at


class TrialRow(NamedTuple):
    """One finished trial, the same for every engine: its return value,
    both step counters, how it trapped, the memory it ended with (a
    :class:`~repro.runtime.memory.Memory`, or a batch lane's view with
    the same ``read_global``) and whether RSkip's exact validation
    flagged a mismatch during it."""

    value: object
    steps: int
    region_steps: int
    #: ``None`` | ``"segfault"`` | ``"coredump"`` | ``"hang"``
    trap: Optional[str]
    detected: bool
    memory: object
    caught: bool = False


class HandedOff(Exception):
    """Raised by :class:`HandOff`; ``args[0]`` is the exported state."""


class Converged(Exception):
    """Raised by :class:`HandOff`; ``args[0]`` is the golden snapshot the
    trial matched."""


class HandOff(_Hook):
    """Stops a trial of *plan* (resumed from *state*, if any) at the first
    block entry past its trigger where no fault state is pending.  Given
    the *golden* prefix the trial resumed from, it runs on to the first
    snapshot mark from there and stops once more: :class:`Converged` when
    the trial (with *runtime*) matches that snapshot, else handed off."""

    def __init__(self, plan, state: Optional[MachineState] = None,
                 golden: Optional[GoldenPrefix] = None, runtime=None):
        super().__init__(state.frames if state is not None else ())
        self._plan = plan
        self._golden = golden
        self._runtime = runtime
        self._snap: Optional[Snapshot] = None
        self.at = plan.step + 1

    def take(self, interp: Interpreter, label: str, index: int) -> int:
        state = MachineState(
            self._frames(interp, label, index), interp.memory, interp.steps,
            interp.region_steps, self._plan.step if interp._fault_pending else None,
            interp._skip_left, interp._invert_next_cbr, interp._corrupt_next_mem,
            interp._cf_pick)
        if state.pending:
            self.at = interp.region_steps
            return self.at
        golden, snap = self._golden, self._snap
        if golden is not None and snap is None:
            snap = self._snap = golden.after(interp.region_steps)
            if snap is not None and snap.region_steps > interp.region_steps:
                self.at = snap.region_steps
                return self.at
        if snap is not None and golden.matches(snap, state, self._runtime):
            raise Converged(snap)
        raise HandedOff(state)


def finish(module, memory, plan: Optional[FaultPlan], intrinsics: Dict[str, object],
           region: Optional[Region], max_steps: int,
           decoded: Optional[DecodedProgram], compiled: Optional[CompiledModule],
           entry: str, args: Sequence = (), state: Optional[MachineState] = None,
           handoff: bool = False, golden: Optional[GoldenPrefix] = None,
           runtime=None) -> TrialRow:
    """Run one trial of *plan* on *memory* to its end — from the start of
    *entry*, or continuing the paused *state* — and return its row.

    The trial runs on the reference interpreter.  With *handoff*, a
    :class:`HandOff` hook passes it to the compiled backend once its
    fault has fully acted (at once, when *state* has none pending) —
    unless *plan* is a skip or cf fault, whose dropped definitions only
    the reference turns into core dumps when read.  Given the *golden*
    prefix *state* was restored from (and the *runtime* behind
    *intrinsics*), a handed-off trial that matches the first snapshot
    after its fault has acted ends there with the golden run's row
    (:meth:`GoldenPrefix.exit`) instead."""
    handoff = handoff and (plan is None or plan.kind not in CONTROL_KINDS)
    if golden is not None and golden.end is None:
        golden = None
    try:
        try:
            if handoff and state is not None and not state.pending:
                raise HandedOff(state)
            engine = Interpreter(module, memory=memory, max_steps=max_steps,
                                 fault_plan=plan, fault_region=region,
                                 decoded=decoded)
            engine.intrinsics = intrinsics
            engine.capture = (HandOff(plan, state, golden, runtime)
                              if handoff else None)
            value = engine.run(entry, args, state=state).value
        except HandedOff as stop:
            engine = CompiledExecutor(module, memory, max_steps, region, compiled)
            engine.intrinsics = intrinsics
            value = engine.run(entry, state=stop.args[0]).value
    except TRIAL_TRAPS as exc:
        return TrialRow(None, engine.steps, engine.region_steps,
                        *classify_trap(exc), memory)
    except Converged as hit:
        return golden.exit(hit.args[0], memory, runtime)
    return TrialRow(value, engine.steps, engine.region_steps, None, False, memory)


def capture(
    module,
    memory: Memory,
    intrinsics: Dict[str, object],
    runtime,
    region,
    decoded: DecodedProgram,
    main: str,
    args: Sequence,
    region_steps: int,
    max_steps: int,
) -> GoldenPrefix:
    """Run the golden execution of *main* on a fresh *memory* on the
    reference interpreter and snapshot it at ``SNAPSHOTS`` evenly spaced
    thresholds over its *region_steps* in-region steps.

    *runtime* must be freshly reset; the capture leaves it in its
    end-of-run state.  The golden run's end is kept for trials that
    re-join it unless the run counted recovery activity.  With a sink installed the run's runtime events are
    recorded instead of written and its spans are dropped."""
    log = _WriteLog(memory)
    interp = Interpreter(module, memory=log, max_steps=max_steps,
                         fault_region=region, decoded=decoded)
    interp.register_intrinsics(intrinsics)
    recorder = MemorySink(capacity=None) if obs_enabled() else None
    hook = interp.capture = _Capture(region_steps, runtime, log, recorder)
    with diverted(recorder) if recorder is not None else nullcontext():
        value = interp.run(main, args).value
    if interp.region_steps != region_steps:
        raise RuntimeError(
            f"golden capture saw {interp.region_steps} region steps, "
            f"the golden run {region_steps}")
    end = None
    if runtime is None or not any(getattr(runtime.total_stats(), name)
                                  for name in RECOVERY_COUNTERS):
        end = GoldenEnd(value, interp.steps, interp.region_steps,
                        {addr: log.cells[addr] for addr in log.written},
                        log.brk,
                        {} if runtime is None else
                        {ctx_id: loop.stats.copy()
                         for ctx_id, loop in runtime.loops.items()})
    return GoldenPrefix(hook.snapshots,
                        list(recorder.events) if recorder is not None else None,
                        module, end)
