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
"""
from __future__ import annotations

from bisect import bisect_right
from contextlib import nullcontext
from typing import Dict, List, NamedTuple, Optional, Sequence

from ..obs.events import diverted, emit as obs_emit, enabled as obs_enabled
from ..obs.sinks import MemorySink
from .compiler import CompiledExecutor, CompiledModule
from .errors import TRIAL_TRAPS, classify_trap
from .faults import CONTROL_KINDS, FaultPlan, Region
from .interpreter import _NEVER, DecodedProgram, Interpreter, MachineState, ResumeFrame
from .memory import Memory

#: snapshots per capture: thresholds every region_steps / SNAPSHOTS steps
SNAPSHOTS = 32


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


class GoldenPrefix:
    """The snapshots of one golden execution, in region-step order."""

    def __init__(self, snapshots: List[Snapshot], events: Optional[list]):
        self.snapshots = snapshots
        self._marks = [snap.region_steps for snap in snapshots]
        #: the golden run's runtime events, or ``None`` when it was
        #: captured without a sink (then traced trials cannot fast-forward)
        self.events = events

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
        memory.patch(snap.cells, snap.brk)
        if runtime is not None:
            runtime.restore(snap.runtime)
        if traced:
            for event in self.events[:snap.events]:
                obs_emit(event.kind, event.loop, **event.payload)
        frames = [f._replace(regs=dict(f.regs)) for f in snap.frames]
        return MachineState(frames, memory, snap.steps, snap.region_steps,
                            trigger=step, counts=snap.counts)


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


class HandOff(_Hook):
    """Stops a trial of *plan* (resumed from *state*, if any) at the first
    block entry past its trigger where no fault state is pending."""

    def __init__(self, plan, state: Optional[MachineState] = None):
        super().__init__(state.frames if state is not None else ())
        self._plan = plan
        self.at = plan.step + 1

    def take(self, interp: Interpreter, label: str, index: int) -> int:
        state = MachineState(
            self._frames(interp, label, index), interp.memory, interp.steps,
            interp.region_steps, self._plan.step if interp._fault_pending else None,
            interp._skip_left, interp._invert_next_cbr, interp._corrupt_next_mem,
            interp._cf_pick)
        if not state.pending:
            raise HandedOff(state)
        self.at = interp.region_steps
        return self.at


def finish(module, memory, plan: Optional[FaultPlan], intrinsics: Dict[str, object],
           region: Optional[Region], max_steps: int,
           decoded: Optional[DecodedProgram], compiled: Optional[CompiledModule],
           entry: str, args: Sequence = (), state: Optional[MachineState] = None,
           handoff: bool = False) -> TrialRow:
    """Run one trial of *plan* on *memory* to its end — from the start of
    *entry*, or continuing the paused *state* — and return its row.

    The trial runs on the reference interpreter.  With *handoff*, a
    :class:`HandOff` hook passes it to the compiled backend once its
    fault has fully acted (at once, when *state* has none pending) —
    unless *plan* is a skip or cf fault, whose dropped definitions only
    the reference turns into core dumps when read."""
    handoff = handoff and (plan is None or plan.kind not in CONTROL_KINDS)
    try:
        try:
            if handoff and state is not None and not state.pending:
                raise HandedOff(state)
            engine = Interpreter(module, memory=memory, max_steps=max_steps,
                                 fault_plan=plan, fault_region=region,
                                 decoded=decoded)
            engine.intrinsics = intrinsics
            engine.capture = HandOff(plan, state) if handoff else None
            value = engine.run(entry, args, state=state).value
        except HandedOff as stop:
            engine = CompiledExecutor(module, memory, max_steps, region, compiled)
            engine.intrinsics = intrinsics
            value = engine.run(entry, state=stop.args[0]).value
    except TRIAL_TRAPS as exc:
        return TrialRow(None, engine.steps, engine.region_steps,
                        *classify_trap(exc), memory)
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
    end-of-run state.  With a sink installed the run's runtime events are
    recorded instead of written and its spans are dropped."""
    log = _WriteLog(memory)
    interp = Interpreter(module, memory=log, max_steps=max_steps,
                         fault_region=region, decoded=decoded)
    interp.register_intrinsics(intrinsics)
    recorder = MemorySink(capacity=None) if obs_enabled() else None
    hook = interp.capture = _Capture(region_steps, runtime, log, recorder)
    with diverted(recorder) if recorder is not None else nullcontext():
        interp.run(main, args)
    if interp.region_steps != region_steps:
        raise RuntimeError(
            f"golden capture saw {interp.region_steps} region steps, "
            f"the golden run {region_steps}")
    return GoldenPrefix(hook.snapshots,
                        list(recorder.events) if recorder is not None else None)
