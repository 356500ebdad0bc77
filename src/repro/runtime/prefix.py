"""Golden-prefix snapshots: ending faulted trials early.

A campaign trial injects one fault at a uniformly random in-region step
(paper section 7.2), so everything it executes before that step replays
the fault-free golden run.  :func:`capture` runs the golden execution
once on the reference interpreter — the one golden run a campaign
makes.  It records a segment at every block entry and every return into
a caller (:attr:`GoldenPrefix.segments`: which instruction each region
step executes) with the innermost frame's activation and register
count, the golden run's runtime events, its final state, and a
:class:`Snapshot` at the first block entry, at any call depth, at or
past each of evenly spaced region-step thresholds:

* the frame stack, each caller resuming after its pending ``call``;
* memory as a diff against the initial image (every cell written so
  far, plus the allocation pointer) — a few dozen cells, not a copy;
* both step counters;
* the stateful runtime's loop state (``LoopRuntimes.snapshot()``,
  which shares trained profiles and configs by reference);
* how many of the golden run's runtime events precede it.

A default-backend trial (every backend but ``ref``; batch lanes
excepted) ends early in one of three ways:

1. **Settled at plan time.**  A value flip whose victim is an empty
   slot of the register file or a register dead where its frame is
   (:meth:`GoldenPrefix.masked`) leaves the run the golden one, so the
   trial never runs: :meth:`GoldenPrefix.settle` returns the golden
   row.
2. **At the golden exit.**  :meth:`GoldenPrefix.state_for` turns the
   latest snapshot at or before the plan's step into a
   :class:`~repro.runtime.interpreter.MachineState` (it patches the
   trial's fresh memory, restores the runtime and re-emits the recorded
   events), and :func:`finish` runs the trial on the reference
   interpreter.  A :class:`HandOff` hook keeps it there up to the first
   snapshot at or after the point its fault has fully acted and
   compares it with that snapshot, once (:meth:`GoldenPrefix.matches`):
   both step counters, frame positions, every register live at each
   frame's resume point, every memory cell and ``brk``, the loop
   runtimes' run state and their statistics except the recovery
   counters (:data:`RECOVERY_COUNTERS`).  Such a trial runs on a
   :class:`_WriteLog` of its memory, so the memory check reads only the
   cells the snapshot holds and the cells the trial stored to.  A match
   ends the trial with the golden run's row (:meth:`GoldenPrefix.exit`);
   the exit is armed only when the golden run counted no recovery
   activity (:attr:`GoldenPrefix.end`).
3. **Handed off.**  Otherwise the hook passes the trial to the compiled
   backend once its fault has fully acted, of whatever kind — unless a
   skip or cf fault left a register unwritten that is live where the
   trial's frames resume (:meth:`DecodedProgram.live_at`).  Only the
   reference turns a read of one into a core dump, so that trial stays
   on it to its end.

Trap, outputs, ``steps``, ``region_steps`` and runtime statistics of
every trial equal a from-scratch reference trial's.  :func:`finish`
also ends batch lanes, from the state they leave lockstep with; they
hand off but neither settle nor exit, and ``ref`` trials have no hook,
so they run every instruction on the reference interpreter.
"""
from __future__ import annotations

import copy
import math
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..obs.events import diverted, emit as obs_emit, enabled as obs_enabled
from ..obs.sinks import MemorySink
from .compiler import CompiledExecutor, CompiledModule
from .errors import TRIAL_TRAPS, classify_trap
from .faults import FaultPlan, Region, flip_victim
from .interpreter import (_INTRIN, _NEVER, DecodedProgram, Interpreter,
                          MachineState, ResumeFrame, RunResult)
from .memory import Memory, check_addr

#: a capture holds at most SNAPSHOTS snapshots, evenly spaced over the
#: golden run's region steps (more than half as many on a long run)
SNAPSHOTS = 64

#: ``SkipStats`` counters only recovery increments and nothing reads
#: back: a trial that re-joins the golden run keeps its own values
RECOVERY_COUNTERS = ("recompute_mismatches", "corrected_master",
                     "corrected_shadow", "unresolved_votes")

_MISSING = object()


class Snapshot(NamedTuple):
    """The golden execution paused at one block entry."""

    region_steps: int
    steps: int
    frames: List[ResumeFrame]
    #: cell address -> value of every cell written since the initial image
    cells: Dict[int, object]
    brk: int
    #: ``LoopRuntimes.snapshot()`` of the stateful runtime, if any
    runtime: object
    #: golden runtime events emitted before this point
    events: int


class GoldenEnd(NamedTuple):
    """The golden execution's final state: where a trial that re-joins
    it or never leaves it ends (its value and step counters are
    :attr:`GoldenPrefix.result`'s)."""

    #: cell address -> final value of every cell the golden run wrote
    cells: Dict[int, object]
    brk: int
    #: loop ctx id -> the ``SkipStats`` each loop runtime ended with
    stats: Dict[int, object]


class GoldenPrefix:
    """One golden execution: how it ran and ended, its segments and its
    snapshots, in region-step order."""

    def __init__(self, snapshots: List[Snapshot], events: list,
                 decoded: DecodedProgram, final: GoldenEnd, converges: bool,
                 result: RunResult, segments: List[Tuple[str, str, int, int]],
                 frames: List[Tuple[int, "_Activation", int]]):
        self.snapshots = snapshots
        self._marks = [snap.region_steps for snap in snapshots]
        #: the golden run's runtime events
        self.events = events
        #: the program the golden run executed (its liveness is queried)
        self.decoded = decoded
        #: the golden run's end, where a trial whose flip is masked ends
        self.final = final
        #: the golden run's end, or ``None`` when trials may not exit
        #: there (the golden run counted recovery activity)
        self.end = final if converges else None
        #: the golden run's value and both step counters
        self.result = result
        #: ``(function, label, first index, region_steps)`` at every block
        #: entry (index 0) and every return into a caller (the index after
        #: the call), in run order: until the next segment, each region
        #: step executes the next instruction of that block
        self.segments = segments
        #: ``(first segment, activation, count)`` wherever the innermost
        #: frame's activation or its register count at a segment (before
        #: a return's call dest) changed, in run order
        self._frames = frames
        #: the first region step and the first frames entry of each
        #: segment, listed on first use
        self._starts: Optional[List[int]] = None
        self._frame_marks: Optional[List[int]] = None
        #: the golden run's final memory (:meth:`_final_from`): every
        #: settled row's memory and, but for the cells in ``_initial``
        #: (the initial values of the cells the golden run wrote), the
        #: initial image the snapshots' diffs apply to
        self._final_memory: Optional[Memory] = None
        self._initial: Dict[int, object] = {}
        #: the one row of every settled trial (:meth:`settle`), once built
        self.settled: Optional[TrialRow] = None

    def windows(self) -> Iterator[Tuple[str, str, int, int, int]]:
        """``(function, label, first index, first region step, length)``
        of every segment that executed region steps, in run order: region
        step ``first + i`` executes instruction ``index + i`` of that
        block."""
        segments = self.segments
        ends = [seg[3] for seg in segments[1:]] + [self.result.region_steps]
        for (func, label, index, start), end in zip(segments, ends):
            if end > start:
                yield func, label, index, start, end - start

    def state_for(self, step: int, memory: Memory, runtime=None) -> MachineState:
        """Fast-forward a trial whose fault triggers at region step
        *step*: patch its fresh *memory*, restore *runtime* and re-emit
        the golden events, all to the latest snapshot at or before
        *step*; returns the state to run from (trigger pending at
        *step*)."""
        snap = self.snapshots[bisect_right(self._marks, step) - 1]
        if self.end is not None and self._final_memory is None:
            self._final_from(memory)
        memory.patch(snap.cells, snap.brk)
        if runtime is not None:
            runtime.restore(snap.runtime)
        if obs_enabled():
            _replay(self.events[:snap.events])
        frames = [f._replace(regs=dict(f.regs)) for f in snap.frames]
        return MachineState(frames, memory, snap.steps, snap.region_steps,
                            trigger=step)

    def _final_from(self, memory: Memory) -> Memory:
        """The golden run's final memory, built once: a copy of the fresh
        *memory* patched with the golden run's final cells, the initial
        values of those cells kept aside."""
        final = self._final_memory
        if final is None:
            final = self._final_memory = copy.copy(memory)
            cells = final.cells = list(memory.cells)
            mark = len(cells)
            self._initial = {addr: cells[addr] if addr < mark else 0.0
                             for addr in self.final.cells}
            final.patch(self.final.cells, self.final.brk)
        return final

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
        and zero sign too.  *state*'s memory must be a :class:`_WriteLog`
        over a fresh image that :meth:`state_for` patched, as
        :func:`finish` gives a trial that can reach this check: only the
        snapshot's cells and the cells the trial stored to are read
        (:func:`_same_cells`), the latter against the initial image
        kept since :meth:`state_for` first ran, so it never matches
        before one.  That is exact because every cell outside both still
        holds its image value, and the golden run's written cells only
        grow from the snapshot the trial restored to *snap*."""
        if (state.steps != snap.steps or state.region_steps != snap.region_steps
                or len(state.frames) != len(snap.frames)):
            return False
        last = len(snap.frames) - 1
        for depth, (mine, gold) in enumerate(zip(state.frames, snap.frames)):
            if mine[:3] != gold[:3]:
                return False
            regs, golden_regs = mine.regs, gold.regs
            for name in self.decoded.live_at(gold, depth < last):
                value = regs.get(name, _MISSING)
                if value is _MISSING or not _same(
                        value, golden_regs.get(name, _MISSING)):
                    return False
        memory, final = state.memory, self._final_memory
        if (final is None or memory.brk != snap.brk
                or not _same_cells(memory.cells, snap.cells, memory.written,
                                   final.cells, self._initial)):
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
        result = self.result
        return TrialRow(result.value, result.steps, result.region_steps, None,
                        False, memory)

    def masked(self, plan: FaultPlan) -> bool:
        """Whether *plan* is a value flip that leaves its trial the golden
        run: its victim (:func:`~repro.runtime.faults.flip_victim` over
        the registers of the frame stack at the plan's step)
        is an empty slot of the register file, or a register that is
        not live there — in an outer frame, where it resumes, without
        its pending call's dest (the rule of :meth:`matches`).

        The innermost frame's registers are its first registers at the
        segment holding the step (a dict only grows, in insertion order)
        plus the dests the segment wrote before the step, the call's
        first after a return; an outer frame's are its first registers
        at its call."""
        if plan.kind != "value":
            return False
        if self._starts is None:
            self._starts = [seg[3] for seg in self.segments]
            self._frame_marks = [entry[0] for entry in self._frames]
        k = bisect_right(self._starts, plan.step) - 1
        func, label, index, start = self.segments[k]
        _, act, count = self._frames[bisect_right(self._frame_marks, k) - 1]
        at = index + plan.step - start
        names = set(act.keys[:count])
        for instr in self.decoded.funcs[func][1][label][index and index - 1:at]:
            if instr[1] is not None:
                names.add(instr[1])
        frames = [(func, label, at, names)]
        while act.parent is not None:
            caller = act.parent
            frames.append((caller.func, act.label, act.index,
                           caller.keys[:act.outer]))
            act = caller
        frames.reverse()
        victim = flip_victim([frame[3] for frame in frames], plan.pick)
        if victim is None:
            return True
        depth, name = victim
        func, label, index, _ = frames[depth]
        return name not in self.decoded.live_at(
            ResumeFrame(func, label, index, None), depth < len(frames) - 1)

    def settle(self, fresh_memory, runtime=None) -> "TrialRow":
        """The row of a trial whose plan is :meth:`masked`, without running
        it: the golden run's value and step counters with no trap, its
        final memory and ``caught`` as the golden run's statistics have
        it.  The row is built once per prefix (its memory on
        ``fresh_memory()``) and returned to every settled trial: a row is
        only read.  Each loop of *runtime* takes a copy of its final
        golden statistics, as the trial, run from a reset runtime, would
        end with; its run state is not reset, since no intrinsic reads it
        before the next trial resets it.  Under tracing the golden run's
        events are re-emitted, as the trial would emit them."""
        row = self.settled
        if row is None:
            memory = self._final_memory
            if memory is None:
                memory = self._final_from(fresh_memory())
            caught = sum(stats.recompute_mismatches
                         for stats in self.final.stats.values()) != 0
            result = self.result
            row = self.settled = TrialRow(
                result.value, result.steps, result.region_steps, None, False,
                memory, caught)
        if runtime is not None:
            stats = self.final.stats
            for ctx_id, loop in runtime.loops.items():
                loop.stats = stats[ctx_id].copy()
        if obs_enabled():
            _replay(self.events)
        return row


def _replay(events) -> None:
    """Emit recorded runtime events (the golden run's, or a shared batch
    group call's) into the current sink."""
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


def _same_cells(cells: list, written: Dict[int, object], stored,
                final: list, initial: Dict[int, object]) -> bool:
    """Whether *cells* hold the golden memory: the initial image
    overwritten by *written*, given that every cell outside *written* and
    *stored* (the trial's own stores) still holds its initial value.  The
    initial image is the golden run's *final* cells but for those it
    wrote, whose initial values *initial* holds.  The *written* cells
    compare with :func:`_same`; the trial's other stored cells compare
    with the image as list equality does (``is`` or ``==``).  A cell
    past the end of either list (its memory's high-water mark) is
    ``0.0``; the trial's stored cells are all within *cells*."""
    mark = len(cells)
    for addr, value in written.items():
        if not _same(cells[addr] if addr < mark else 0.0, value):
            return False
    mark = len(final)
    for addr in stored:
        if addr not in written:
            have = cells[addr]
            want = (initial[addr] if addr in initial else
                    final[addr] if addr < mark else 0.0)
            if have is not want and have != want:
                return False
    return True


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
    """Memory that remembers the address of every cell it stores to.

    It shares the cells of the memory it wraps.  :meth:`Memory.store` is
    the only writer on the reference interpreter's path (``patch`` is
    the fast-forward's own restore, not the program's), so
    :attr:`written` holds every cell the run changed since the wrap: the
    golden capture's written set, and the cells a trial that can reach
    :meth:`GoldenPrefix.matches` stored to."""

    def __init__(self, memory: Memory):
        self.__dict__.update(vars(memory))  # the same cells and layout
        self.written: set = set()

    def store(self, addr, value) -> None:
        idx = check_addr(addr, self.size)
        try:
            self.cells[idx] = value
        except IndexError:  # above the high-water mark
            self._grow(idx + 1)
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


class _Activation:
    """One call the golden run made: its function, its caller's
    activation, where the caller resumes and how many registers it held
    at the call (none of these for the entry function), and its
    registers — the frame's dict while it runs, its key tuple once it
    has returned.  A frame's dict only grows, in insertion order, so a
    register count at any point of the call names a prefix of that
    tuple."""

    __slots__ = ("func", "parent", "label", "index", "outer", "keys")

    def __init__(self, func: str, parent: Optional["_Activation"] = None,
                 label: Optional[str] = None, index: int = 0, outer: int = 0):
        self.func = func
        self.parent = parent
        self.label = label
        self.index = index
        self.outer = outer
        self.keys = ()


class _Capture(_Hook):
    """The interpreter hook of the golden run: it pauses at every block
    entry and records a segment there (and one after every call), with
    the innermost frame's activation and register count, and snapshots
    the run at the first block entry at or past each multiple of a
    spacing.  The spacing starts at one region step and doubles,
    dropping every snapshot no multiple of the new spacing needs,
    whenever more than ``SNAPSHOTS`` are held: without knowing the run's
    length in advance, it ends with at most ``SNAPSHOTS`` evenly spaced
    snapshots.  Snapshots with no intrinsic call between them share one
    copy of the runtime's state."""

    #: pause at every block entry: each one starts a segment
    at = 0

    def __init__(self, runtime, memory: _WriteLog, recorder: MemorySink,
                 main: str):
        super().__init__()
        self._every = 1
        self._next = 0
        self._calls = -1
        self._state = None
        self._runtime = runtime
        self._memory = memory
        self._recorder = recorder
        self.snapshots: List[Snapshot] = []
        self.segments: List[Tuple[str, str, int, int]] = []
        self.root = self._act = _Activation(main)
        #: ``(first segment, innermost activation, its register count)``
        #: at each segment where either changed
        self.frames: List[Tuple[int, _Activation, int]] = []
        self._count = -1
        #: one key tuple per distinct register order of a returned call
        self._keys: Dict[tuple, tuple] = {}

    def call(self, interp: Interpreter, label: str, index: int, callee,
             vals, vts, depth: int):
        caller = self._act
        count = len(interp._frames[-1])
        act = self._act = _Activation(callee.name, caller, label, index, count)
        self._count = -1  # the callee's first segment records it
        result = super().call(interp, label, index, callee, vals, vts, depth)
        keys = tuple(act.keys)
        act.keys = self._keys.setdefault(keys, keys)
        self._act = caller
        self._count = count
        segments = self.segments
        self.frames.append((len(segments), caller, count))
        segments.append((caller.func, label, index, interp.region_steps))
        return result

    def take(self, interp: Interpreter, label: str, index: int) -> int:
        regs = interp._frames[-1]
        act = self._act
        segments = self.segments
        if len(regs) != self._count:
            act.keys = regs
            self._count = len(regs)
            self.frames.append((len(segments), act, self._count))
        region_steps = interp.region_steps
        segments.append((act.func, label, index, region_steps))
        if region_steps >= self._next:
            self._snapshot(interp, label, index)
        return 0

    def _snapshot(self, interp: Interpreter, label: str, index: int) -> None:
        memory = self._memory
        self.snapshots.append(Snapshot(
            interp.region_steps, interp.steps,
            self._frames(interp, label, index),
            {addr: memory.cells[addr] for addr in memory.written},
            memory.brk,
            self._runtime_state(interp),
            len(self._recorder.events),
        ))
        if len(self.snapshots) > SNAPSHOTS:
            every = self._every = 2 * self._every
            kept, mark = [], 0
            for snap in self.snapshots:
                if snap.region_steps >= mark:
                    kept.append(snap)
                    mark = (snap.region_steps // every + 1) * every
            self.snapshots = kept
        self._next = (interp.region_steps // self._every + 1) * self._every

    def _runtime_state(self, interp: Interpreter):
        """The runtime's state, copied — or the last snapshot's copy when
        no intrinsic ran since (only intrinsics touch the runtime)."""
        if self._runtime is None:
            return None
        calls = interp.counts[_INTRIN]
        if calls != self._calls:
            self._calls = calls
            self._state = self._runtime.snapshot()
        return self._state


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
    the trial (with *runtime*) matches that snapshot, else handed off —
    unless a dropped definition or an illegal control edge left a
    register live there unwritten.  Only the reference turns a read of
    one into a core dump, so such a trial stays on it to its end."""

    def __init__(self, plan, state: Optional[MachineState] = None,
                 golden: Optional[GoldenPrefix] = None, runtime=None):
        super().__init__(state.frames if state is not None else ())
        self._golden = golden
        self._runtime = runtime
        self._snap: Optional[Snapshot] = None
        self.at = plan.step + 1

    def take(self, interp: Interpreter, label: str, index: int) -> int:
        if (interp._fault_pending or interp._invert_next_cbr
                or interp._corrupt_next_mem is not None or interp._skip_left
                or interp._cf_pick is not None):
            self.at = interp.region_steps
            return self.at
        golden, snap = self._golden, self._snap
        if golden is not None and snap is None:
            snap = self._snap = golden.after(interp.region_steps)
            if snap is not None and snap.region_steps > interp.region_steps:
                self.at = snap.region_steps
                return self.at
        state = MachineState(self._frames(interp, label, index), interp.memory,
                             interp.steps, interp.region_steps)
        if snap is not None and golden.matches(snap, state, self._runtime):
            raise Converged(snap)
        if not interp.decoded.defines_live(state.frames):
            self.at = _NEVER
            return self.at
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
    fault has fully acted (at once, when *state* has none pending) and
    every register live where its frames resume is written.  Given the
    *golden* prefix *state* was restored from (and the *runtime* behind
    *intrinsics*), a trial that matches the first snapshot after its
    fault has acted ends there with the golden run's row
    (:meth:`GoldenPrefix.exit`) instead.  The third early end, a masked
    value flip settled at plan time (:meth:`GoldenPrefix.settle`), is
    the caller's: such a trial never gets here."""
    if golden is not None and golden.end is None:
        golden = None
    if handoff and golden is not None:
        # the golden check reads only the cells the trial stores to
        memory = _WriteLog(memory)
        state = MachineState(state.frames, memory, state.steps,
                             state.region_steps, state.trigger)
    try:
        try:
            if handoff and state is not None and state.trigger is None:
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
    decoded: Optional[DecodedProgram],
    main: str,
    args: Sequence,
    max_steps: int,
) -> GoldenPrefix:
    """Run the golden execution of *main* on a fresh *memory* on the
    reference interpreter, recording its segments, its runtime events
    and its snapshots (see :class:`_Capture`).

    *runtime* must be freshly reset; the capture leaves it, and
    *memory*'s cells, in their end-of-run state.  The golden run's end
    is kept for trials that re-join it unless the run counted recovery
    activity.  Its runtime events are recorded, not written to any
    installed sink, and its spans are dropped.  A trap propagates."""
    log = _WriteLog(memory)
    interp = Interpreter(module, memory=log, max_steps=max_steps,
                         fault_region=region, decoded=decoded)
    interp.register_intrinsics(intrinsics)
    recorder = MemorySink(capacity=None)
    hook = interp.capture = _Capture(runtime, log, recorder, main)
    with diverted(recorder):
        result = interp.run(main, args)
    hook.root.keys = tuple(hook.root.keys)
    final = GoldenEnd({addr: log.cells[addr] for addr in log.written}, log.brk,
                      {} if runtime is None else
                      {ctx_id: loop.stats.copy()
                       for ctx_id, loop in runtime.loops.items()})
    converges = runtime is None or not any(
        getattr(runtime.total_stats(), name) for name in RECOVERY_COUNTERS)
    return GoldenPrefix(hook.snapshots, list(recorder.events), interp.decoded,
                        final, converges, result, hook.segments, hook.frames)
