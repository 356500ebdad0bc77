"""Lane-vectorized batch execution backend (``--backend batch``).

Fault campaigns execute thousands of *near-identical* trials: same
module, same input, one distinct :class:`~repro.runtime.faults.FaultPlan`
each.  This backend runs N such trials as N *lanes* of a single lockstep
execution — Elzar's SIMD-lane replication turned sideways, across trials
instead of within one.

Representation
==============

Lanes that have executed the same instruction sequence since launch form
a *group*: one frame stack, one ``steps``/``region_steps`` counter (the
counts are lane-invariant within a group by construction).  The key
observation is that lanes only *differ* downstream of their injected
fault: until a lane's trigger fires — and after it whenever the flip was
masked — every register and memory cell is bit-identical across the
group.  The representation exploits that:

* A register slot whose lanes all hold the same value is stored as the
  **raw Python scalar**; operations between uniform slots execute once
  per *group*, not once per lane.  Only slots actually touched by
  injected-fault dataflow widen into a **sparse column**
  (:class:`_SpCol`): one base value plus a dict of per-row exceptions.
  An op on a column evaluates the base once and each exception row
  individually, so its cost follows the number of divergent rows.  A
  slot where many or all rows differ is the same shape with many
  exceptions; the base need not be held by any row, so when evaluating
  it traps the op falls back to evaluating every row, and only the
  rows that trap retire.  Values are plain Python ints/floats
  throughout, with arbitrary-precision integers and the lazy 64-bit
  wrap intact.
* Memory is layered copy-on-write over one shared read-only **template**
  (the initial image every lane starts from): a per-group ``gmem`` dict
  holds uniform stores, a per-lane overlay dict holds divergent stores,
  and a per-group ``dirty`` set (a conservative superset of the
  divergently-written addresses) picks the resolution path.  A clean
  load or store is two dict operations *per group*; in lockstep no
  per-lane memory image is materialized.  The template ends at its
  high-water mark, as a :class:`~repro.runtime.memory.Memory` does: a
  cell past it reads ``0.0``.

Divergence and retirement
=========================

* A conditional branch whose lanes disagree (or an intrinsic whose
  charge lists differ in length) **splits** the group; each child keeps
  executing independently.  Split groups are never re-merged: after a
  divergent branch the lanes' ``steps`` counters differ, so any merged
  group would have to give up the exact per-lane step accounting the O5
  oracle pins.  At each split/retirement the surviving group's columns
  are re-collapsed to scalars where the remaining lanes agree — the
  usual case, since the one divergent lane just left.
* A lane that traps **retires** with its outcome (`segfault`,
  `coredump`, `hang`, or detected) while the rest of its group keeps
  running; exceeding ``max_steps`` retires the whole group as `hang`.
  A lane that retires or finishes in lockstep ends with a read-only
  :class:`_LaneMem` view of its memory (overlay → group layer →
  template; ``read_array``/``read_global`` only) as its row's memory.
* A group at or below ``SCALAR_CUTOFF`` lanes leaves lockstep.  Each
  of its lanes gets a :class:`~repro.runtime.memory.Memory` of its own
  (a copy of the template, patched with the group's write layer and
  then the lane's overlay, at the lane's ``brk``), exports a
  :class:`~repro.runtime.interpreter.MachineState` on it (its frames,
  that memory, both counters and its trigger, if still pending) and
  finishes alone the way a campaign trial does
  (:func:`repro.runtime.prefix.finish`): on the reference interpreter
  until its flip has fired, then on the compiled backend.
  A faulted lane that hangs burns through ``HANG_FACTOR``
  baseline budgets alone, so the tail can take a large share of a
  campaign's time; the ``batch.lockstep`` / ``batch.tail`` spans report
  the split when a sink is installed.

The engine holds no copy of a reference rule.  Value ops take their
semantics from :mod:`repro.runtime.semantics`: the uniform path calls
its ``OPS`` table for every cold op, the sparse path calls ``apply``,
and only the hot ops (MOV, ADD/FADD, SUB/FSUB, FMUL, MUL, ICMP/FCMP)
are inlined, on the uniform path.  Lanes run the reference decode of
the program (:meth:`DecodedProgram.slotted`, its slot-indexed view,
shared by every slab of a campaign), every load and store checks its
address with :func:`repro.runtime.memory.check_addr` once the inline
in-bounds integer test fails, every ``alloc`` bumps through
:func:`repro.runtime.memory.bump`, and a flip picks its victim through
:func:`repro.runtime.faults.flip_victim`.

Lanes carry value flips only (a plan of any other kind is a
``ValueError``; campaigns run those trials one by one, see
:func:`repro.eval.fault_campaign.trial_rows`): the trigger fires when
``region_steps - 1 == plan.step`` *before* operand fetch, as on the
reference interpreter, and a flip on a uniform slot widens it into a
column.  The rules of every other kind live in the reference
interpreter alone.

In lockstep, intrinsics are called with ``None`` as their interpreter
argument (tail lanes hand over their resuming engine): every in-tree
intrinsic (the rskip.* closures and the SWIFT checkers) closes over its
own runtime state and ignores the parameter, and the batch machine has
no single interpreter object to hand over.  A stateless table shared by
every lane is called once per group when the arguments are uniform.

The lanes of a stateful scheme (RSkip, REPLAY, CKPT) arrive as forks of
one reset runtime, and a group holds their common state once: while a
lane makes the same intrinsic calls as the rest of its group, its state
is the group's runtime, so a call with uniform arguments runs once per
group however many lanes share it.  A lane gets its own copy of the
group's state (a ``snapshot()`` restored into its fork) the moment the
group runtime would stop describing it — its argument row differs from
the base, the group splits and the lane's child does not keep the
runtime, or the lane leaves for the tail — and from then on it calls
its own table.  A lane whose trial ends while sharing (it retires, or
the group finishes) takes only the group's statistics, all its tally
reads.  With a sink installed, a shared call runs with its events
diverted and emits them once per sharing lane in row order, between the
private lanes' own calls, so the trace equals per-lane execution's.

Known divergence from the reference interpreter (not observable in
campaign tallies): per-opcode counts and timing are not maintained
(campaign trials never read them).
"""
from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.function import Function
from ..ir.module import Module
from ..obs.events import current_sink, diverted, enabled as obs_enabled
from ..obs.sinks import MemorySink
from .compiler import CompiledModule, compile_module
from .errors import TRIAL_TRAPS, CoreDumpError, HangError, SegfaultError, classify_trap
from .faults import FaultPlan, Region, flip_value, flip_victim
from .interpreter import (
    _ADD, _ALLOC, _BR, _CALL, _CBR, _FADD, _FCMP, _FMUL, _FSUB, _ICMP,
    _INTRIN, _LOAD, _MOV, _MUL, _RET, _STORE, _SUB,
    DEFAULT_MAX_STEPS,
    MAX_CALL_DEPTH,
    DecodedProgram,
    MachineState,
    ResumeFrame,
)
from .memory import Memory, bump, check_addr
from .prefix import TrialRow, _replay, finish
from .semantics import LAST_VALUE_OP, OPS as _OPS
from .semantics import HUGE_INT as _HUGE_INT, INT_MASK64 as _INT_MASK64, apply

#: Groups at or below this many lanes leave lockstep for the tail.
#: Break-even sits where the fixed dispatch cost per group instruction
#: exceeds the summed per-lane scalar cost; measured on the paper
#: workloads the crossover is at a handful of lanes.
SCALAR_CUTOFF = 6

#: Sentinel for register slots no instruction has written yet (the
#: reference interpreter's "name not in the frame dict").  ``None`` is a
#: legal register value (a void call's result), so absence needs its own
#: marker.
_UNDEF = object()

#: Sentinel for dict-chain lookups where ``None`` is a legal value.
_MISS = object()


def _try_collapse(vals: list):
    """The uniform value of per-row *vals*, or ``_MISS`` if rows differ.

    Conservative on purpose: values merge only when they have the same
    type and compare ``==``, so NaNs never merge and neither do ``1``
    and ``1.0`` — integer and float diverge under later ``sdiv``/``srem``.
    """
    first = vals[0]
    t = first.__class__
    for x in vals:
        if x.__class__ is not t or not x == first:
            return _MISS
    return first


class _SpCol:
    """A *sparse* lane column: one base value plus a dict of per-row
    exceptions.  This is the shape injected-fault taint takes — one lane
    differs, the rest agree — and it keeps every op on a tainted
    register O(#divergent lanes) instead of O(#lanes).  Rows without an
    exception hold the base; when every row is an exception the base is
    held by none of them."""

    __slots__ = ("base", "exc")

    def __init__(self, base, exc):
        self.base = base
        self.exc = exc              # row index -> value


def _column(vals: list):
    """Per-row *vals* as a register value: the uniform value when every
    row agrees (by :func:`_try_collapse`'s rule), else an :class:`_SpCol`
    around the value a majority vote picks, so exceptions stay few."""
    base = _try_collapse(vals)
    if base is not _MISS:
        return base
    votes = 0
    for x in vals:
        if not votes:
            base = x
            votes = 1
        elif x.__class__ is base.__class__ and x == base:
            votes += 1
        else:
            votes -= 1
    t = base.__class__
    return _SpCol(base, {r: x for r, x in enumerate(vals)
                         if x.__class__ is not t or not x == base})


def _pack(base, exc: dict, n: int):
    """A column of *n* rows as a register value: the base alone without
    exceptions, and re-based through :func:`_column` once exceptions
    cover most rows, so a base few rows hold stops costing every later
    op one evaluation per row."""
    if not exc:
        return base
    if 2 * len(exc) <= n:
        return _SpCol(base, exc)
    return _column([exc.get(r, base) for r in range(n)])


def _remap(col: _SpCol, remap: Dict[int, int], n: int):
    """*col* restricted to the rows *remap* keeps (old row -> new row),
    as a register value of the resulting *n*-row group."""
    nexc = {}
    for r, v in col.exc.items():
        nr = remap.get(r)
        if nr is not None:
            nexc[nr] = v
    return _pack(col.base, nexc, n)


def _select_brks(brks: list, sel: List[int]):
    """The selected rows' bump pointers as a group's ``(brk, brks)``:
    the shared pointer and ``None`` when they agree, else the list."""
    nb = [brks[i] for i in sel]
    val = _try_collapse(nb)
    return (nb[0], nb) if val is _MISS else (val, None)


def _at(x, i: int):
    """Row ``i`` of a scalar or sparse column."""
    if x.__class__ is _SpCol:
        return x.exc.get(i, x.base)
    return x


def _call(fn, name: str, args: tuple):
    """One intrinsic call as ``(value, charge length, None)``, or
    ``(None, 0, trap)`` when it raises a trial-ending trap (an unknown
    intrinsic is a core dump)."""
    try:
        if fn is None:
            raise CoreDumpError(f"unknown intrinsic {name!r}")
        rv, charge = fn(None, args)
        return rv, len(charge), None
    except TRIAL_TRAPS as exc:
        return None, 0, exc


def _take_stats(lane_runtime, group_runtime) -> None:
    """Give a lane whose trial ended while sharing *group_runtime* that
    runtime's statistics, loop by loop: all a finished trial is tallied
    by, so the rest of the state is not copied."""
    for ctx_id, loop in group_runtime.loops.items():
        lane_runtime.loops[ctx_id].stats = loop.stats.copy()


def fork_lanes(runtime, lanes: int) -> Optional[list]:
    """The runtimes of *lanes* batch lanes of a program whose stateful
    runtime is *runtime*: one ``fork()`` each, in the just-constructed
    state, or ``None`` for a stateless program.  Campaign slabs and the
    O5/O6 oracles both build their lanes here."""
    if runtime is None:
        return None
    return [runtime.fork() for _ in range(lanes)]


class _LaneMem:
    """The memory a lane that finished or trapped in lockstep ended with,
    read-only: its overlay over its group's write layer over the shared
    *template* (a :class:`Memory`, whose ``read_array`` bounds the read
    and reads a cell past its high-water mark as ``0.0``).  Lanes that
    leave lockstep end on a :class:`Memory` of their own."""

    __slots__ = ("template", "size", "gmem", "ov")

    def __init__(self, template, gmem, ov):
        self.template = template
        self.size = template.size   # the memory's size
        self.gmem = gmem            # group write layer (frozen)
        self.ov = ov                # this lane's overlay

    def read_array(self, base: int, count: int) -> list:
        out = self.template.read_array(base, count)
        ov, gmem = self.ov, self.gmem
        for idx in range(base, base + count):
            val = ov.get(idx, _MISS)
            if val is _MISS:
                val = gmem.get(idx, _MISS)
            if val is not _MISS:
                out[idx - base] = val
        return out

    def read_global(self, name: str, count: int, offset: int = 0) -> list:
        return self.read_array(self.template.global_addr(name) + offset, count)


class _Frame:
    """One function activation of a lane group: per slot either a raw
    scalar (uniform across lanes), a sparse lane column (:class:`_SpCol`),
    or ``_UNDEF``."""

    __slots__ = ("fname", "blocks", "names", "slot_of", "regs",
                 "label", "pc", "ret_dest")

    def __init__(self, fname, blocks, names, slot_of, regs, label, ret_dest):
        self.fname = fname
        self.blocks = blocks
        self.names = names          # slot index -> register name
        self.slot_of = slot_of      # register name -> slot index
        self.regs = regs            # per-slot scalar | column | _UNDEF
        self.label = label
        self.pc = 0
        self.ret_dest = ret_dest    # caller slot for the return value


class _Group:
    """Converged lanes: same position, same history, shared counters,
    and a shared copy-on-write memory layer."""

    __slots__ = ("rows", "frames", "steps", "region_steps", "trigs", "tptr",
                 "gmem", "dirty", "brk", "brks", "row_of", "rt", "table",
                 "nshare")

    def __init__(self, rows, frames, steps, region_steps, trigs):
        self.rows: List[int] = rows          # lane ids, group-row order
        self.frames: List[_Frame] = frames   # outermost first
        self.steps = steps
        self.region_steps = region_steps
        #: pending fault triggers, sorted by step: (plan.step, lane id)
        self.trigs: List[Tuple[int, int]] = trigs
        self.tptr = 0
        self.gmem: dict = {}       # uniform stores (addr -> value)
        #: divergently-stored addrs -> the lane ids holding overlay
        #: entries there (a conservative superset: lanes may have left)
        self.dirty: Dict[int, set] = {}
        self.brk = 8               # uniform bump pointer...
        self.brks = None           # ...or a per-row list of pointers
        self.row_of: Dict[int, int] = {lane: i for i, lane in enumerate(rows)}
        #: the runtime every sharing lane's state lives in, its
        #: intrinsics table, and how many of the rows share it
        self.rt = None
        self.table: Optional[dict] = None
        self.nshare = 0


class BatchExecutor:
    """Execute one module over N lanes sharing one template memory, each
    lane with its own value-flip plan (or none), memory overlay and
    intrinsics.

    ``intrinsics`` may be ``None`` (no intrinsics), one shared table
    (stateless checkers — UNSAFE/SWIFT/SWIFT-R), or a sequence of
    per-lane tables, every lane then calling its own from the start.
    A stateful scheme (RSkip, REPLAY, CKPT) passes ``runtimes`` instead:
    one :class:`~repro.core.manager.LoopRuntimes` per lane, all in one
    state — forks of one reset runtime (:func:`fork_lanes`).  Lanes
    share one copy of that state while they see the same intrinsic
    calls, and each lane's runtime ends up holding its trial's
    statistics.

    ``run`` returns one :class:`~repro.runtime.prefix.TrialRow` per
    lane, its memory the lane's (see the module docstring); tail lanes
    finish on the *compiled* and *decoded* programs passed in (a
    campaign's own).  With a
    sink installed, ``group_calls``/``lane_calls`` count the lockstep
    calls of stateful intrinsics made once per group and once per lane,
    and ``state_copies`` the lanes given their own runtime state.
    """

    def __init__(
        self,
        module: Module,
        template: Memory,
        n_lanes: int,
        fault_plans: Optional[Sequence[Optional[FaultPlan]]] = None,
        fault_region: Optional[Region] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        intrinsics=None,
        compiled: Optional[CompiledModule] = None,
        runtimes=None,
        decoded: Optional[DecodedProgram] = None,
    ):
        if n_lanes <= 0:
            raise ValueError("a batch needs at least one lane")
        self.module = module
        self.n_lanes = n_lanes
        if not template.globals and module.globals:
            template.load_globals(module)
        self._template = template
        self._size = template.size
        if fault_plans is None:
            fault_plans = [None] * n_lanes
        if len(fault_plans) != n_lanes:
            raise ValueError("one fault plan (or None) per lane required")
        if any(plan is not None and plan.kind != "value" for plan in fault_plans):
            raise ValueError("batch lanes take value flips only; every other "
                             "fault kind runs per trial")
        self._plans = list(fault_plans)
        #: each lane's runtime (stateful schemes), its own intrinsics
        #: table, and whether it calls that table — False while it shares
        #: its group's runtime
        self._rts: Optional[list] = None
        self._own = [True] * n_lanes
        if runtimes is not None:
            if intrinsics is not None:
                raise ValueError("pass intrinsics or runtimes, not both")
            self._rts = list(runtimes)
            if len(self._rts) != n_lanes:
                raise ValueError("one runtime per lane required")
            self._shared = False
            self._tables: List[Optional[dict]] = [None] * n_lanes
            self._own = [False] * n_lanes
        elif intrinsics is None:
            self._shared = True
            self._tables = [{}] * n_lanes
        elif isinstance(intrinsics, dict):
            self._shared = True
            self._tables = [intrinsics] * n_lanes
        else:
            tables = list(intrinsics)
            if len(tables) != n_lanes:
                raise ValueError("one intrinsics table per lane required")
            self._shared = False
            self._tables = tables
        #: lockstep calls of stateful intrinsics once per group and once
        #: per lane, and runtime state copies (counted with a sink installed)
        self.group_calls = 0
        self.lane_calls = 0
        self.state_copies = 0
        self._traced = False
        self.fault_region = fault_region
        self.max_steps = max_steps
        #: the compiled program tail lanes finish on, and the decoded
        #: one every lane runs (lockstep lanes its slot-indexed view)
        self._compiled = compiled
        self._decoded = DecodedProgram.adopt(decoded, module, fault_region,
                                             template)
        #: wall-clock ms of tail lanes, summed while a sink is installed
        self._tail_ms = 0.0
        self._ovs: List[dict] = [dict() for _ in range(n_lanes)]
        self._results: List[Optional[TrialRow]] = [None] * n_lanes

    # -- frames -------------------------------------------------------------
    def _make_frame(self, func: Function, ret_dest: Optional[int]) -> _Frame:
        entry, blocks, names, slot_of = self._decoded.slotted(func)
        regs = [_UNDEF] * len(names)
        return _Frame(func.name, blocks, names, slot_of, regs, entry, ret_dest)

    # -- fault machinery ----------------------------------------------------
    def _fire_triggers(self, g: _Group) -> None:
        """Inject every value flip whose trigger step just elapsed (mirrors
        the ``region_steps - 1 == plan.step`` check before operand fetch)."""
        want = g.region_steps - 1
        row_of = g.row_of
        while g.tptr < len(g.trigs) and g.trigs[g.tptr][0] == want:
            lane = g.trigs[g.tptr][1]
            g.tptr += 1
            row = row_of.get(lane)
            if row is not None:  # else the lane retired before its trigger
                self._inject_lane(g, row, lane)

    def _inject_lane(self, g: _Group, row: int, lane: int) -> None:
        """One lane's value flip on the victim :func:`flip_victim` picks
        among this group's frame stack's written registers, as the
        reference interpreter's flip does.  Landing on a uniform slot
        widens it into a column (unless the flip was masked and the
        value is unchanged)."""
        plan = self._plans[lane]
        written = [{frame.names[s]: s for s, reg in enumerate(frame.regs)
                    if reg is not _UNDEF} for frame in g.frames]
        victim = flip_victim(written, plan.pick)
        if victim is None:
            return
        depth, name = victim
        fregs, s = g.frames[depth].regs, written[depth][name]
        col = fregs[s]
        if col.__class__ is _SpCol:
            cur = col.exc.get(row, col.base)
            col.exc[row] = flip_value(cur, plan.bit)
        else:
            nv = flip_value(col, plan.bit)
            if nv is not col:  # flip_value returns its input when masked
                fregs[s] = _SpCol(col, {row: nv})

    # -- retirement / splitting --------------------------------------------
    def _prune_dirty(self, g: _Group) -> None:
        """Drop dirty addresses no surviving lane has an overlay entry
        for (their writers retired or forked away) so clean loads at
        those addresses return to the uniform fast path."""
        dirty = g.dirty
        if not dirty:
            return
        row_of = g.row_of
        for idx, writers in list(dirty.items()):
            for lane in writers:
                if lane in row_of:
                    break
            else:
                del dirty[idx]

    def _retire_rows(self, g: _Group, dead: Dict[int, BaseException]) -> List[int]:
        """Record outcomes for trapped rows, compress the group, and
        return the surviving row indices (old numbering).  Retirees
        share one snapshot of the group write layer (the group lives on
        and keeps mutating it); survivors' columns re-collapse to
        scalars where the departures made them uniform again."""
        if g.nshare:
            self._end_shares(g, [g.rows[row] for row in dead])
        snap = dict(g.gmem)
        for row, exc in dead.items():
            trap, det = classify_trap(exc)
            lane = g.rows[row]
            self._results[lane] = TrialRow(
                None, g.steps, g.region_steps, trap, det,
                _LaneMem(self._template, snap, self._ovs[lane]))
        keep = [i for i in range(len(g.rows)) if i not in dead]
        g.rows[:] = [g.rows[i] for i in keep]
        g.row_of = {lane: i for i, lane in enumerate(g.rows)}
        n = len(keep)
        if n:
            remap = {old: j for j, old in enumerate(keep)}
            for frame in g.frames:
                regs = frame.regs
                for s, col in enumerate(regs):
                    if col.__class__ is _SpCol:
                        regs[s] = _remap(col, remap, n)
            if g.brks is not None:
                g.brk, g.brks = _select_brks(g.brks, keep)
            self._prune_dirty(g)
        return keep

    def _retire_all(self, g: _Group, exc: BaseException) -> None:
        if g.nshare:
            self._end_shares(g, g.rows)
        trap, det = classify_trap(exc)
        for lane in g.rows:
            self._results[lane] = TrialRow(
                None, g.steps, g.region_steps, trap, det,
                _LaneMem(self._template, g.gmem, self._ovs[lane]))
        g.rows[:] = []

    def _fork(self, g: _Group, sel: List[int], reuse: bool) -> _Group:
        """A child group of the selected rows, at the parent's position.
        The first child of a split (``reuse=True``) adopts the parent's
        write layer wholesale; later children take copies.  Columns that
        became uniform within the child collapse back to scalars."""
        rows = [g.rows[i] for i in sel]
        n = len(rows)
        remap = {old: j for j, old in enumerate(sel)}
        frames = []
        for fr in g.frames:
            nregs = [_remap(col, remap, n) if col.__class__ is _SpCol else col
                     for col in fr.regs]
            nf = _Frame(fr.fname, fr.blocks, fr.names, fr.slot_of, nregs,
                        fr.label, fr.ret_dest)
            nf.pc = fr.pc
            frames.append(nf)
        lanes = set(rows)
        trigs = [t for t in g.trigs[g.tptr:] if t[1] in lanes]
        child = _Group(rows, frames, g.steps, g.region_steps, trigs)
        if reuse:
            child.gmem = g.gmem
            child.dirty = g.dirty
        else:
            child.gmem = dict(g.gmem)
            child.dirty = {idx: set(wr) for idx, wr in g.dirty.items()}
        child.brk = g.brk
        if g.brks is not None:
            child.brk, child.brks = _select_brks(g.brks, sel)
        if n > SCALAR_CUTOFF:
            self._prune_dirty(child)
        return child

    # -- the shared runtime -------------------------------------------------
    def _detach(self, g: _Group, lanes: List[int]) -> None:
        """Give each of *lanes*, which share *g*'s runtime, its own copy
        of that runtime's state; from here on it calls its own table."""
        if not lanes:
            return
        snap = g.rt.snapshot()
        for lane in lanes:
            runtime = self._rts[lane]
            runtime.restore(snap)
            self._tables[lane] = runtime.intrinsics()
            self._own[lane] = True
        g.nshare -= len(lanes)
        if self._traced:
            self.state_copies += len(lanes)

    def _end_shares(self, g: _Group, lanes: Sequence[int]) -> None:
        """The trials of *lanes* end (they retire or finish): those still
        sharing *g*'s runtime take its statistics and stop sharing."""
        own = self._own
        for lane in lanes:
            if not own[lane]:
                _take_stats(self._rts[lane], g.rt)
                own[lane] = True
                g.nshare -= 1

    def _hand_runtime(self, g: _Group, children: List[_Group]) -> None:
        """After *g* splits: one child keeps its runtime — the one with
        the most sharing lanes among those staying in lockstep — and the
        sharing lanes of every other child leave with their own copy."""
        if not g.nshare:
            return
        own = self._own
        shares = [[lane for lane in c.rows if not own[lane]] for c in children]
        keep = max(range(len(children)), key=lambda j: (
            len(children[j].rows) > SCALAR_CUTOFF, len(shares[j])))
        for j, child in enumerate(children):
            if j == keep:
                child.rt, child.table = g.rt, g.table
                child.nshare = len(shares[j])
            else:
                self._detach(g, shares[j])

    def _group_call(self, g: _Group, name: str, args: tuple):
        """Call intrinsic *name* once on *g*'s runtime for every lane
        sharing it: :func:`_call`'s triple plus, with a sink installed,
        the events the call emitted — diverted, for the caller to emit
        once per sharing lane in row order."""
        fn = g.table.get(name)
        if not self._traced:
            return (*_call(fn, name, args), ())
        self.group_calls += 1
        recorder = MemorySink(capacity=None)
        with diverted(recorder):
            out = _call(fn, name, args)
        return (*out, recorder.events)

    # -- public API ---------------------------------------------------------
    def run(self, func_name: str = "main", args: Sequence = ()) -> List[TrialRow]:
        func = self.module.get_function(func_name)
        if len(args) != len(func.params):
            raise TypeError(
                f"@{func_name} expects {len(func.params)} arguments, got {len(args)}"
            )
        frame = self._make_frame(func, None)
        for p, value in zip(func.params, args):
            # one launch, one argument vector: parameters are uniform
            frame.regs[frame.slot_of[p.name]] = value
        trigs = sorted(
            (plan.step, lane)
            for lane, plan in enumerate(self._plans) if plan is not None
        )
        group = _Group(list(range(self.n_lanes)), [frame], 0, 0, trigs)
        group.brk = self._template._brk
        if self._rts is not None:
            # every lane starts in the one (reset) state: the group holds it
            group.rt = self._rts[0].fork()
            group.table = group.rt.intrinsics()
            group.nshare = self.n_lanes
        work = [group]
        self._traced = obs_enabled()
        self._tail_ms = 0.0
        t0 = perf_counter()
        while work:
            self._run_group(work.pop(), work)
        sink = current_sink() if self._traced else None
        if sink is not None:
            total = (perf_counter() - t0) * 1000.0
            sink.record_span("batch.lockstep", total - self._tail_ms)
            sink.record_span("batch.tail", self._tail_ms)
        return list(self._results)

    # -- the lockstep machine ----------------------------------------------
    def _run_group(self, g: _Group, work: List[_Group]) -> None:
        """Run one group until every lane retires/finishes or it splits."""
        module = self.module
        tables = self._tables
        ovs = self._ovs
        # the template ends at its high-water mark: a cell past it reads 0.0
        tcells = self._template.cells
        tlen = len(tcells)
        rows = g.rows
        max_steps = self.max_steps
        msize = self._size
        traced = self._traced
        frame = g.frames[-1]
        # counters live in locals on the hot path; every call that reads
        # or publishes them syncs the group first
        steps = g.steps
        rsteps = g.region_steps
        ntrig1 = (g.trigs[g.tptr][0] + 1) if g.tptr < len(g.trigs) else -9

        while True:
            instrs = frame.blocks[frame.label]
            num = len(instrs)
            pc = frame.pc
            regs = frame.regs
            while pc < num:
                L = len(rows)
                if L <= SCALAR_CUTOFF:
                    frame.pc = pc
                    g.steps = steps
                    g.region_steps = rsteps
                    self._finish_tail(g)
                    return
                code, dest, ops, extra, in_region = instrs[pc]
                pc += 1
                steps += 1
                if steps > max_steps:
                    g.steps = steps
                    g.region_steps = rsteps
                    self._retire_all(g, HangError(steps))
                    return
                if in_region:
                    rsteps += 1
                    if rsteps == ntrig1:
                        g.steps = steps
                        g.region_steps = rsteps
                        self._fire_triggers(g)
                        ntrig1 = (g.trigs[g.tptr][0] + 1) \
                            if g.tptr < len(g.trigs) else -9

                # ---- value ops ------------------------------------------
                if code <= LAST_VALUE_OP:
                    k, v = ops[0]
                    a = regs[v] if k else v
                    nops = len(ops)
                    b = c = None
                    sp = a.__class__ is _SpCol
                    if nops > 1:
                        k, v = ops[1]
                        b = regs[v] if k else v
                        if b.__class__ is _SpCol:
                            sp = True
                        if nops > 2:
                            k, v = ops[2]
                            c = regs[v] if k else v
                            if c.__class__ is _SpCol:
                                sp = True

                    if not sp:
                        # every operand uniform: execute once per group
                        try:
                            if code == _FMUL:
                                res = a * b
                            elif code == _FADD or code == _ADD:
                                res = a + b
                            elif code == _FSUB or code == _SUB:
                                res = a - b
                            elif code == _MOV:
                                res = a
                            elif code == _MUL:
                                res = a * b
                                if isinstance(res, int) and \
                                        (res > _HUGE_INT or res < -_HUGE_INT):
                                    res &= _INT_MASK64
                            elif code == _ICMP or code == _FCMP:
                                if extra == 2:
                                    r = a < b
                                elif extra == 0:
                                    r = a == b
                                elif extra == 4:
                                    r = a > b
                                elif extra == 3:
                                    r = a <= b
                                elif extra == 5:
                                    r = a >= b
                                else:
                                    r = a != b
                                res = 1 if r else 0
                            else:
                                res = _OPS[code](a, b, c)
                        except TRIAL_TRAPS as exc:
                            g.steps = steps
                            g.region_steps = rsteps
                            self._retire_all(g, exc)
                            return
                        regs[dest] = res
                        continue

                    # ---- sparse operands: base once, then exceptions --
                    if code == _MOV:
                        regs[dest] = _SpCol(a.base, dict(a.exc))
                        continue
                    rows_u = set(a.exc) if a.__class__ is _SpCol else set()
                    if b is not None and b.__class__ is _SpCol:
                        rows_u.update(b.exc)
                    if c is not None and c.__class__ is _SpCol:
                        rows_u.update(c.exc)
                    try:
                        rbase = apply(code, extra, _at(a, -1),
                                      _at(b, -1), _at(c, -1))
                    except TRIAL_TRAPS:
                        # the base traps, though no row may hold it:
                        # evaluate every row, and retire those that trap
                        rbase = _MISS
                        rows_u = range(L)
                    rexc = {}
                    dead = None
                    tb = rbase.__class__
                    for r in rows_u:
                        try:
                            rv_ = apply(code, extra, _at(a, r),
                                        _at(b, r), _at(c, r))
                        except TRIAL_TRAPS as exc:
                            if dead is None:
                                dead = {}
                            dead[r] = exc
                            continue
                        if rv_.__class__ is tb and rv_ == rbase:
                            continue  # lane reconverged: drop
                        rexc[r] = rv_
                    if dead is None:
                        regs[dest] = _pack(rbase, rexc, L)
                        continue
                    # the survivors' rows are renumbered with every column
                    regs[dest] = _SpCol(rbase, rexc)
                    g.steps = steps
                    g.region_steps = rsteps
                    self._retire_rows(g, dead)
                    if not rows:
                        return
                    continue

                # ---- memory ops (copy-on-write layers) ------------------
                if code == _LOAD:
                    k, v = ops[0]
                    a = regs[v] if k else v
                    gmem = g.gmem
                    if a.__class__ is not _SpCol:
                        # uniform address
                        if type(a) is int and 8 <= a < msize:
                            idx = a
                        else:
                            try:
                                idx = check_addr(a, msize)
                            except SegfaultError as exc:
                                g.steps = steps
                                g.region_steps = rsteps
                                self._retire_all(g, exc)
                                return
                        vbase = gmem.get(idx, _MISS)
                        if vbase is _MISS:
                            vbase = tcells[idx] if idx < tlen else 0.0
                        writers = g.dirty.get(idx)
                        if writers is None:
                            regs[dest] = vbase
                            continue
                        row_of = g.row_of
                        rexc = {}
                        tb = vbase.__class__
                        for lane in writers:
                            r = row_of.get(lane)
                            if r is None:
                                continue  # writer retired or forked away
                            v_ = ovs[lane][idx]
                            if v_.__class__ is tb and v_ == vbase:
                                continue
                            rexc[r] = v_
                        regs[dest] = _SpCol(vbase, rexc) if rexc else vbase
                        continue
                    # near-uniform address: resolve the base once and the
                    # exception lanes' own addresses individually
                    try:
                        ab = a.base
                        if type(ab) is int and 8 <= ab < msize:
                            idx = ab
                        else:
                            idx = check_addr(ab, msize)
                        vbase = gmem.get(idx, _MISS)
                        if vbase is _MISS:
                            vbase = tcells[idx] if idx < tlen else 0.0
                        rexc = {}
                        writers = g.dirty.get(idx)
                        if writers:
                            row_of = g.row_of
                            for lane in writers:
                                r = row_of.get(lane)
                                if r is not None:
                                    rexc[r] = ovs[lane][idx]
                        for r, av_ in a.exc.items():
                            if type(av_) is int and 8 <= av_ < msize:
                                idx2 = av_
                            else:
                                idx2 = check_addr(av_, msize)
                            v_ = ovs[rows[r]].get(idx2, _MISS)
                            if v_ is _MISS:
                                v_ = gmem.get(idx2, _MISS)
                                if v_ is _MISS:
                                    v_ = tcells[idx2] if idx2 < tlen else 0.0
                            rexc[r] = v_
                        tb = vbase.__class__
                        for r in [r for r, v_ in rexc.items()
                                  if v_.__class__ is tb and v_ == vbase]:
                            del rexc[r]
                        regs[dest] = _pack(vbase, rexc, L)
                        continue
                    except SegfaultError:
                        pass  # a lane traps: resolve row by row below
                    out = [None] * L
                    dead = None
                    for i in range(L):
                        addr = _at(a, i)
                        lane = rows[i]
                        try:
                            if type(addr) is int and 8 <= addr < msize:
                                idx = addr
                            else:
                                idx = check_addr(addr, msize)
                        except SegfaultError as exc:
                            if dead is None:
                                dead = {}
                            dead[i] = exc
                            continue
                        val = ovs[lane].get(idx, _MISS)
                        if val is _MISS:
                            val = gmem.get(idx, _MISS)
                            if val is _MISS:
                                val = tcells[idx] if idx < tlen else 0.0
                        out[i] = val
                    if dead is not None:
                        g.steps = steps
                        g.region_steps = rsteps
                        keep = self._retire_rows(g, dead)
                        if not rows:
                            return
                        out = [out[i] for i in keep]
                    regs[dest] = _column(out)
                    continue

                if code == _STORE:
                    k, v = ops[0]
                    val0 = regs[v] if k else v
                    ka, va = ops[1]
                    addr0 = regs[va] if ka else va
                    gmem = g.gmem
                    dirty = g.dirty
                    if addr0.__class__ is not _SpCol:
                        if type(addr0) is int and 8 <= addr0 < msize:
                            idx = addr0
                        else:
                            try:
                                idx = check_addr(addr0, msize)
                            except SegfaultError as exc:
                                g.steps = steps
                                g.region_steps = rsteps
                                self._retire_all(g, exc)
                                return
                        if val0.__class__ is not _SpCol:
                            # uniform store: lands in the group layer and
                            # re-cleans any stale per-lane overlay entries
                            writers = dirty.pop(idx, None)
                            if writers:
                                row_of = g.row_of
                                for lane in writers:
                                    if lane in row_of:
                                        ovs[lane].pop(idx, None)
                            gmem[idx] = val0
                        else:
                            # column store: base to the group layer,
                            # exception lanes to their overlays
                            old = dirty.get(idx)
                            if old:
                                row_of = g.row_of
                                for lane in old:
                                    if lane in row_of:
                                        ovs[lane].pop(idx, None)
                            vb = val0.base
                            tb = vb.__class__
                            wr = set()
                            for r, v_ in val0.exc.items():
                                if v_.__class__ is tb and v_ == vb:
                                    continue
                                lane = rows[r]
                                ovs[lane][idx] = v_
                                wr.add(lane)
                            if wr:
                                dirty[idx] = wr
                            elif old:
                                dirty.pop(idx, None)
                            gmem[idx] = vb
                        continue
                    dead = None
                    for i in range(L):
                        addr = _at(addr0, i)
                        lane = rows[i]
                        try:
                            if type(addr) is int and 8 <= addr < msize:
                                idx = addr
                            else:
                                idx = check_addr(addr, msize)
                        except SegfaultError as exc:
                            if dead is None:
                                dead = {}
                            dead[i] = exc
                            continue
                        ovs[lane][idx] = _at(val0, i)
                        wr = dirty.get(idx)
                        if wr is None:
                            dirty[idx] = {lane}
                        else:
                            wr.add(lane)
                    if dead is not None:
                        g.steps = steps
                        g.region_steps = rsteps
                        self._retire_rows(g, dead)
                        if not rows:
                            return
                    continue

                # ---- control flow ---------------------------------------
                if code == _CBR:
                    k, v = ops[0]
                    a = regs[v] if k else v
                    if a.__class__ is not _SpCol:
                        t0 = a != 0 and a == a  # NaN falls through
                        frame.label = extra[1] if t0 else extra[2]
                        frame.pc = 0
                        break
                    # near-uniform condition: only exception lanes can
                    # disagree with the base direction
                    tb = a.base != 0 and a.base == a.base
                    div = sorted(
                        r for r, v_ in a.exc.items()
                        if (v_ != 0 and v_ == v_) != tb)
                    if len(div) == L:
                        # every row disagrees with a base none holds
                        tb = not tb
                        div = []
                    if not div:
                        frame.label = extra[1] if tb else extra[2]
                        frame.pc = 0
                        break
                    div_set = set(div)
                    others = [i for i in range(L) if i not in div_set]
                    taken_sel, fall_sel = (others, div) if tb else (div, others)
                    frame.pc = pc
                    g.steps = steps
                    g.region_steps = rsteps
                    pairs = [(taken_sel, extra[1]), (fall_sel, extra[2])]
                    if len(fall_sel) > len(taken_sel):
                        pairs.reverse()  # bigger child adopts the layers
                    children = []
                    for j, (sel, target) in enumerate(pairs):
                        child = self._fork(g, sel, j == 0)
                        top = child.frames[-1]
                        top.label = target
                        top.pc = 0
                        children.append(child)
                    self._hand_runtime(g, children)
                    work.extend(children)
                    return

                if code == _BR:
                    frame.label = extra
                    frame.pc = 0
                    break

                if code == _RET:
                    n = len(ops)
                    rv = None
                    if n:
                        k, v = ops[0]
                        rv = regs[v] if k else v
                    g.frames.pop()
                    if not g.frames:
                        g.steps = steps
                        g.region_steps = rsteps
                        if g.nshare:
                            self._end_shares(g, rows)
                        for i in range(L):
                            lane = rows[i]
                            self._results[lane] = TrialRow(
                                _at(rv, i), g.steps, g.region_steps, None,
                                False, _LaneMem(self._template, g.gmem,
                                                ovs[lane]))
                        g.rows[:] = []
                        return
                    caller = g.frames[-1]
                    rd = frame.ret_dest
                    if rd is not None:
                        if rv.__class__ is _SpCol:
                            caller.regs[rd] = _SpCol(rv.base, dict(rv.exc))
                        else:
                            caller.regs[rd] = rv
                    frame = caller
                    break

                if code == _CALL:
                    callee = module.functions.get(extra[0])
                    if callee is None:
                        g.steps = steps
                        g.region_steps = rsteps
                        self._retire_all(g, CoreDumpError(
                            f"call to unknown function @{extra[0]}"))
                        return
                    if len(g.frames) > MAX_CALL_DEPTH:
                        g.steps = steps
                        g.region_steps = rsteps
                        self._retire_all(
                            g, CoreDumpError(f"call depth exceeded in @{callee.name}"))
                        return
                    frame.pc = pc
                    nf = self._make_frame(callee, dest)
                    for p, (k, v) in zip(callee.params, ops):
                        s = nf.slot_of[p.name]
                        if k:
                            x = regs[v]
                            if x.__class__ is _SpCol:
                                nf.regs[s] = _SpCol(x.base, dict(x.exc))
                            else:
                                nf.regs[s] = x
                        else:
                            nf.regs[s] = v
                    g.frames.append(nf)
                    frame = nf
                    break

                if code == _INTRIN:
                    vals = []
                    uni = True
                    for k, v in ops:
                        x = regs[v] if k else v
                        if x.__class__ is _SpCol:
                            uni = False
                        vals.append(x)
                    if uni and (self._shared or g.nshare == L):
                        # identical arguments and one stateless table, or
                        # every lane sharing the group's runtime: the
                        # whole group is a single call
                        if self._shared:
                            rv, clen, exc = _call(
                                tables[0].get(extra), extra, tuple(vals))
                        else:
                            rv, clen, exc, events = self._group_call(
                                g, extra, tuple(vals))
                            if events:
                                for _ in range(L):
                                    _replay(events)
                        if exc is not None:
                            g.steps = steps
                            g.region_steps = rsteps
                            self._retire_all(g, exc)
                            return
                        if dest is not None:
                            regs[dest] = rv
                        steps += clen
                        continue
                    own = self._own
                    events = ()
                    if g.nshare:
                        if not uni:
                            # lanes whose argument row differs from the
                            # base stop sharing the group's runtime
                            div = set()
                            for x in vals:
                                if x.__class__ is _SpCol:
                                    div.update(x.exc)
                            self._detach(g, [rows[r] for r in div
                                             if not own[rows[r]]])
                        if g.nshare:
                            srv, sclen, sexc, events = self._group_call(
                                g, extra, tuple(x.base if x.__class__ is _SpCol
                                                else x for x in vals))
                    count = traced and not self._shared
                    out = [None] * L
                    clens = [0] * L
                    dead = None
                    for i in range(L):
                        lane = rows[i]
                        if own[lane]:
                            if count:
                                self.lane_calls += 1
                            rv, clen, exc = _call(
                                tables[lane].get(extra), extra,
                                tuple(_at(x, i) for x in vals))
                        else:
                            # a sharing lane: the group call was its call
                            if events:
                                _replay(events)
                            rv, clen, exc = srv, sclen, sexc
                        if exc is None:
                            out[i] = rv
                            clens[i] = clen
                        else:
                            if dead is None:
                                dead = {}
                            dead[i] = exc
                    if dead is not None:
                        g.steps = steps
                        g.region_steps = rsteps
                        keep = self._retire_rows(g, dead)
                        if not rows:
                            return
                        out = [out[i] for i in keep]
                        clens = [clens[i] for i in keep]
                    if dest is not None:
                        regs[dest] = _column(out)
                    lens = set(clens)
                    if len(lens) == 1:
                        steps += clens[0]
                        continue
                    # state-dependent predictor charges diverged: split
                    frame.pc = pc
                    g.steps = steps
                    g.region_steps = rsteps
                    children = []
                    for clen in sorted(lens):
                        sel = [i for i, cl in enumerate(clens) if cl == clen]
                        child = self._fork(g, sel, not children)
                        child.steps += clen
                        children.append(child)
                    self._hand_runtime(g, children)
                    work.extend(children)
                    return

                if code == _ALLOC:
                    k, v = ops[0]
                    a = regs[v] if k else v
                    if a.__class__ is not _SpCol and g.brks is None:
                        sz = int(a)
                        try:
                            top = bump(sz, g.brk, msize)
                        except SegfaultError as exc:
                            g.steps = steps
                            g.region_steps = rsteps
                            self._retire_all(g, exc)
                            return
                        regs[dest] = g.brk
                        g.brk = top
                        continue
                    brks = g.brks
                    if brks is None:
                        brks = g.brks = [g.brk] * L
                    out = [None] * L
                    dead = None
                    for i in range(L):
                        sz = int(_at(a, i))
                        base = brks[i]
                        try:
                            brks[i] = bump(sz, base, msize)
                        except SegfaultError as exc:
                            if dead is None:
                                dead = {}
                            dead[i] = exc
                            continue
                        out[i] = base
                    if dead is not None:
                        g.steps = steps
                        g.region_steps = rsteps
                        keep = self._retire_rows(g, dead)
                        if not rows:
                            return
                        out = [out[i] for i in keep]
                    regs[dest] = _column(out)
                    continue

                g.steps = steps
                g.region_steps = rsteps
                self._retire_all(g, CoreDumpError(
                    f"unimplemented opcode index {code}"))
                return
            else:
                g.steps = steps
                g.region_steps = rsteps
                self._retire_all(g, CoreDumpError(
                    f"block {frame.label} of @{frame.fname} fell through "
                    f"without terminator"
                ))
                return

    # -- the tail -----------------------------------------------------------
    def _finish_tail(self, g: _Group) -> None:
        """Finish every lane of a small group off lockstep: each exports
        a :class:`MachineState` and runs alone to its end, as a campaign
        trial does (:func:`~repro.runtime.prefix.finish`)."""
        if g.nshare:
            self._detach(g, [lane for lane in g.rows if not self._own[lane]])
        if self._compiled is None:
            self._compiled = compile_module(self.module)
        pending = {lane: step for step, lane in g.trigs[g.tptr:]}
        brks = g.brks
        entry = g.frames[0].fname
        for i, lane in enumerate(g.rows):
            # the template, the group's write layer, then the lane's
            # overlay, at the lane's allocation pointer
            brk = brks[i] if brks is not None else g.brk
            mem = self._template.copy()
            mem.patch(g.gmem, brk)
            mem.patch(self._ovs[lane], brk)
            frames = [
                ResumeFrame(fr.fname, fr.label, fr.pc, {
                    name: _at(col, i) for name, col in zip(fr.names, fr.regs)
                    if col is not _UNDEF})
                for fr in g.frames
            ]
            state = MachineState(frames, mem, g.steps, g.region_steps,
                                 pending.get(lane))
            if self._traced:
                t0 = perf_counter()
            self._results[lane] = finish(
                self.module, mem, self._plans[lane], self._tables[lane],
                self.fault_region, self.max_steps, self._decoded,
                self._compiled, entry, state=state, handoff=True)
            if self._traced:
                self._tail_ms += (perf_counter() - t0) * 1000.0
        g.rows[:] = []
