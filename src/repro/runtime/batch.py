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
  injected-fault dataflow widen into per-lane columns — numpy **object**
  arrays, one element per lane.  Object dtype is load-bearing: every
  elementwise ufunc dispatches to the operands' *Python* dunders, so
  results stay bit-exact Python ints/floats, with the reference
  interpreter's arbitrary-precision integers and lazy 64-bit wrap
  intact.  No ``np.int64``/``np.float64`` ever enters a register file:
  comparison results come back as bool-dtype arrays and are routed
  through ``astype(int64).astype(object)``, and scalar operands are
  pre-wrapped as 0-d object arrays before broadcasting.
* Memory is layered copy-on-write over one shared read-only **template**
  (the initial image every lane starts from): a per-group ``gmem`` dict
  holds uniform stores, a per-lane overlay dict holds divergent stores,
  and a per-group ``dirty`` set (a conservative superset of the
  divergently-written addresses) picks the resolution path.  A clean
  load or store is two dict operations *per group*; no per-lane memory
  images are ever materialized.

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
  Retired and finished lanes expose their memory as a :class:`_LaneMem`
  view (overlay → group layer → template) via ``lane_memory``.
* A group at or below ``SCALAR_CUTOFF`` lanes leaves lockstep: each of
  its lanes finishes on a slot-indexed scalar loop that mirrors the
  reference interpreter instruction-for-instruction.  A faulted lane
  that hangs burns through ``HANG_FACTOR`` baseline budgets alone — the
  scalar continuation keeps that tail at reference-interpreter speed.

Per-lane faults follow :meth:`Interpreter._inject` to the letter: the
trigger fires when ``region_steps - 1 == plan.step`` *before* operand
fetch, value flips pick a victim across the frame stack's name-sorted
live registers modelling a ``REGISTER_FILE_SIZE``-slot physical file
(a flip on a uniform slot widens it into a column), branch faults invert
the lane's next conditional, address faults XOR a bit into the lane's
next memory access.

Intrinsics are called with ``None`` as their interpreter argument: every
in-tree intrinsic (the rskip.* closures and the SWIFT checkers) closes
over its own runtime state and ignores the parameter, and the batch
machine has no single interpreter object to hand over.  A shared
intrinsics table whose arguments are uniform is invoked once per group.

Known divergences from the reference interpreter (documented, not
observable in campaign tallies): per-opcode counts, timing and profiling
are not maintained (campaign trials never read them), and reading a
never-written register — impossible in verified IR — fails with a
different exception than the reference's ``KeyError``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.function import Function
from ..ir.module import Module
from ..ir.values import Const, GlobalAddr, Reg
from .errors import TRIAL_TRAPS, CoreDumpError, HangError, SegfaultError, classify_trap
from .faults import CONTROL_KINDS, SKIP_KINDS, FaultPlan, Region, flip_value
from .interpreter import (
    _CODE,
    _HUGE_INT,
    _INT_MASK64,
    _PRED,
    DEFAULT_MAX_STEPS,
    MAX_CALL_DEPTH,
    OPERAND_ARITY,
    REGISTER_FILE_SIZE,
)

# the same hoisted opcode indices the reference dispatch chain uses
from .interpreter import (  # noqa: F401
    _ADD, _ALLOC, _AND, _BR, _CALL, _CBR, _COS, _EXP, _FABS, _FADD, _FCMP,
    _FDIV, _FLOOR, _FMUL, _FNEG, _FPTOSI, _FSUB, _ICMP, _INTRIN, _LOAD,
    _LOG, _LSHR, _MOV, _MUL, _OR, _RET, _SDIV, _SELECT, _SHL, _SIN,
    _SITOFP, _SQRT, _SREM, _STORE, _SUB, _XOR,
)
from .memory import Memory

#: Groups at or below this many lanes run the scalar continuation loop.
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


@dataclass
class LaneResult:
    """What one lane of a batched run produced (mirrors the observable
    state of one reference-interpreter trial)."""

    value: object
    steps: int
    region_steps: int
    #: ``None`` | ``"segfault"`` | ``"coredump"`` | ``"hang"``
    trap: Optional[str] = None
    detected: bool = False
    finished: bool = False


def _check_addr(addr, size: int) -> int:
    """``Memory._check`` restated as a free function: same coercions,
    same exception classes, same messages."""
    if isinstance(addr, float):
        if not addr.is_integer():
            raise SegfaultError(addr, f"non-integer address {addr!r}")
        addr = int(addr)
    if not isinstance(addr, int):
        raise SegfaultError(addr, f"invalid address {addr!r}")
    if addr < 8 or addr >= size:
        raise SegfaultError(addr)
    return addr


def _try_collapse(col: np.ndarray, n: int):
    """The uniform value of a column, or ``_MISS`` if its lanes differ.

    Conservative on purpose: NaNs compare unequal and stay columns, and
    equal values of different types (``1`` vs ``1.0``) are not merged —
    integer and float diverge under later ``sdiv``/``srem``.
    """
    first = col[0]
    if first is None:
        for x in col:
            if x is not None:
                return _MISS
        return None
    eq = col == first
    if not eq.all():
        return _MISS
    t = type(first)
    for x in col:
        if type(x) is not t:
            return _MISS
    return first


class _SpCol:
    """A *sparse* lane column: one uniform base value plus a small dict
    of per-row exceptions.  This is the shape injected-fault taint takes
    — one lane differs, the rest agree — and it keeps every op on a
    tainted register O(#divergent lanes) instead of O(#lanes)."""

    __slots__ = ("base", "exc")

    def __init__(self, base, exc):
        self.base = base
        self.exc = exc              # row index -> value


def _dense(sp: _SpCol, n: int) -> np.ndarray:
    col = np.empty(n, dtype=object)
    col[:] = sp.base
    for r, v in sp.exc.items():
        col[r] = v
    return col


def _at(x, i: int):
    """Element ``i`` of a scalar, sparse or dense column."""
    cls = x.__class__
    if cls is np.ndarray:
        return x[i]
    if cls is _SpCol:
        return x.exc.get(i, x.base)
    return x


class _LaneMem:
    """One lane's composed memory view: overlay → group layer → template.

    Mirrors :class:`Memory`'s access API (same checks, same exception
    messages) so campaign result readers and the scalar continuation
    loop are oblivious to the layering.  Writes always land in the
    lane's private overlay — the group layer and template are frozen by
    the time a :class:`_LaneMem` exists.
    """

    __slots__ = ("cells", "globals", "size", "gmem", "ov", "_brk")

    def __init__(self, cells, globals_, size, gmem, ov, brk):
        self.cells = cells          # shared template cells (read-only)
        self.globals = globals_
        self.size = size
        self.gmem = gmem            # group write layer (frozen)
        self.ov = ov                # this lane's private overlay
        self._brk = brk

    # -- access (Memory API) ------------------------------------------------
    def load(self, addr):
        idx = self._check(addr)
        val = self.ov.get(idx, _MISS)
        if val is _MISS:
            val = self.gmem.get(idx, _MISS)
            if val is _MISS:
                val = self.cells[idx]
        return val

    def store(self, addr, value) -> None:
        self.ov[self._check(addr)] = value

    def _check(self, addr) -> int:
        if isinstance(addr, float):
            if not addr.is_integer():
                raise SegfaultError(addr, f"non-integer address {addr!r}")
            addr = int(addr)
        if not isinstance(addr, int):
            raise SegfaultError(addr, f"invalid address {addr!r}")
        if addr < 8 or addr >= self.size:
            raise SegfaultError(addr)
        return addr

    def allocate(self, size: int) -> int:
        if size <= 0:
            raise SegfaultError(self._brk, f"allocation of non-positive size {size}")
        base = self._brk
        self._brk += int(size)
        if self._brk > self.size:
            raise SegfaultError(base, "out of memory")
        return base

    def global_addr(self, name: str) -> int:
        try:
            return self.globals[name]
        except KeyError:
            raise SegfaultError(None, f"unknown global @{name}") from None

    # -- convenience for harnesses ------------------------------------------
    def read_array(self, base: int, count: int) -> list:
        if base < 8 or base + count > self.size:
            raise SegfaultError(base, "array read out of bounds")
        ov = self.ov
        gmem = self.gmem
        cells = self.cells
        out = []
        for idx in range(base, base + count):
            val = ov.get(idx, _MISS)
            if val is _MISS:
                val = gmem.get(idx, _MISS)
                if val is _MISS:
                    val = cells[idx]
            out.append(val)
        return out

    def write_array(self, base: int, values: Sequence) -> None:
        if base < 8 or base + len(values) > self.size:
            raise SegfaultError(base, "array write out of bounds")
        for i, v in enumerate(values):
            self.ov[base + i] = v

    def read_global(self, name: str, count: int, offset: int = 0) -> list:
        return self.read_array(self.global_addr(name) + offset, count)

    def write_global(self, name: str, values: Sequence, offset: int = 0) -> None:
        self.write_array(self.global_addr(name) + offset, values)


class _Frame:
    """One function activation of a lane group: per slot either a raw
    scalar (uniform across lanes), a lane column (np object array), or
    ``_UNDEF``."""

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


class _SFrame:
    """One function activation of a single scalar-continuation lane."""

    __slots__ = ("fname", "blocks", "names", "regs", "label", "pc", "ret_dest")

    def __init__(self, fname, blocks, names, regs, label, pc, ret_dest):
        self.fname = fname
        self.blocks = blocks
        self.names = names
        self.regs = regs            # per-slot scalars (_UNDEF = unwritten)
        self.label = label
        self.pc = pc
        self.ret_dest = ret_dest


class _Group:
    """Converged lanes: same position, same history, shared counters,
    and a shared copy-on-write memory layer."""

    __slots__ = ("rows", "frames", "steps", "region_steps", "trigs", "tptr",
                 "gmem", "dirty", "brk", "brks", "row_of")

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
        self.brks = None           # ...or a per-lane column of pointers
        self.row_of: Dict[int, int] = {lane: i for i, lane in enumerate(rows)}


class BatchExecutor:
    """Execute one module over N lanes sharing one template memory, each
    lane with its own fault plan, memory overlay and intrinsics table.

    ``intrinsics`` may be ``None`` (no intrinsics), one shared table
    (stateless checkers — UNSAFE/SWIFT/SWIFT-R), or a sequence of
    per-lane tables (RSkip predictors carry per-trial state).

    ``run`` returns one :class:`LaneResult` per lane; final memory state
    is read through :meth:`lane_memory`, whose view composes the lane's
    overlay, its group's write layer and the shared template.
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
    ):
        if n_lanes <= 0:
            raise ValueError("a batch needs at least one lane")
        self.module = module
        self.n_lanes = n_lanes
        if not template.globals and module.globals:
            template.load_globals(module)
        self._template = template
        self._tcells = template.cells
        self._globals = template.globals
        self._size = template.size
        if fault_plans is None:
            fault_plans = [None] * n_lanes
        if len(fault_plans) != n_lanes:
            raise ValueError("one fault plan (or None) per lane required")
        self._plans = list(fault_plans)
        if intrinsics is None:
            self._shared = True
            self._tables: List[dict] = [{}] * n_lanes
        elif isinstance(intrinsics, dict):
            self._shared = True
            self._tables = [intrinsics] * n_lanes
        else:
            tables = list(intrinsics)
            if len(tables) != n_lanes:
                raise ValueError("one intrinsics table per lane required")
            self._shared = False
            self._tables = tables
        self.fault_region = fault_region
        self.max_steps = max_steps
        self._invert = [False] * n_lanes
        self._corrupt: List[Optional[int]] = [None] * n_lanes
        # live counts let the hot loop skip per-lane flag checks entirely
        self._n_invert = 0
        self._n_corrupt = 0
        # instruction-skip / control-flow fault state: remaining dynamic
        # instructions to drop, and the pending wrong-target pick.  Lanes
        # carrying these leave lockstep the moment the trigger fires (their
        # instruction stream diverges), so only the scalar loop reads them.
        self._skip = [0] * n_lanes
        self._cf: List[Optional[float]] = [None] * n_lanes
        #: per function: ({label: next label in layout order}, block order) —
        #: what a skipped terminator falls through to
        self._succ: Dict[str, tuple] = {}
        self._ovs: List[dict] = [dict() for _ in range(n_lanes)]
        self._results: List[Optional[LaneResult]] = [None] * n_lanes
        self._lmems: List[Optional[_LaneMem]] = [None] * n_lanes
        self._dcache: Dict[str, tuple] = {}

    def lane_memory(self, lane: int) -> _LaneMem:
        """The composed memory view of a finished or retired lane."""
        lm = self._lmems[lane]
        if lm is None:
            raise ValueError(f"lane {lane} has not finished")
        return lm

    # -- decoding -----------------------------------------------------------
    def _decode(self, func: Function) -> tuple:
        """Slot-indexed mirror of ``Interpreter._decode``: same opcode
        indices, same arity contract, same region flags; register names
        become dense slot indices (parameters first, then first-use
        order) and constants carry a pre-built 0-d object array so ufunc
        broadcasting never coerces them to numpy scalars."""
        cached = self._dcache.get(func.name)
        if cached is not None:
            return cached
        region = self.fault_region
        template = self._template
        slot_of: Dict[str, int] = {}
        names: List[str] = []

        def slot(name: str) -> int:
            s = slot_of.get(name)
            if s is None:
                s = len(names)
                slot_of[name] = s
                names.append(name)
            return s

        for p in func.params:
            slot(p.name)
        blocks: Dict[str, list] = {}
        for label in func.block_order():
            in_region = True if region is None else region.contains(func.name, label)
            decoded = []
            for idx, instr in enumerate(func.blocks[label].instrs):
                ops = []
                for a in instr.args:
                    if isinstance(a, Reg):
                        ops.append((True, slot(a.name), None))
                    elif isinstance(a, GlobalAddr):
                        addr = template.global_addr(a.name)
                        ops.append((False, addr, np.array(addr, dtype=object)))
                    else:
                        assert isinstance(a, Const)
                        ops.append((False, a.value, np.array(a.value, dtype=object)))
                code = _CODE[instr.op]
                want = OPERAND_ARITY[code]
                if want is not None and len(ops) not in want:
                    raise CoreDumpError(
                        f"@{func.name}:{label}: {instr.op.value} expects "
                        f"{' or '.join(map(str, want))} operand(s), got {len(ops)}"
                    )
                dest = slot(instr.dest.name) if instr.dest is not None else None
                if code == _BR:
                    extra = instr.labels[0]
                elif code == _CBR:
                    extra = ((func.name, label, idx), instr.labels[0], instr.labels[1])
                elif code in (_CALL, _INTRIN):
                    extra = instr.callee
                elif code in (_ICMP, _FCMP):
                    extra = _PRED[instr.pred]
                else:
                    extra = None
                decoded.append((code, dest, tuple(ops), extra, in_region))
            blocks[label] = decoded
        order = tuple(func.block_order())
        self._succ[func.name] = (
            {lab: (order[i + 1] if i + 1 < len(order) else None)
             for i, lab in enumerate(order)},
            order,
        )
        entry = order[0]
        result = (entry, blocks, names, slot_of)
        self._dcache[func.name] = result
        return result

    def _make_frame(self, func: Function, ret_dest: Optional[int]) -> _Frame:
        entry, blocks, names, slot_of = self._decode(func)
        regs = [_UNDEF] * len(names)
        return _Frame(func.name, blocks, names, slot_of, regs, entry, ret_dest)

    # -- fault machinery ----------------------------------------------------
    def _fire_triggers(self, g: _Group) -> List[int]:
        """Inject every plan whose trigger step just elapsed (mirrors the
        ``region_steps - 1 == plan.step`` check before operand fetch).
        Returns the lanes whose plan forces them out of lockstep (skip and
        control-flow kinds): their stream diverges at this instruction, so
        the caller must peel them off to the scalar loop."""
        want = g.region_steps - 1
        row_of = g.row_of
        peel: List[int] = []
        while g.tptr < len(g.trigs) and g.trigs[g.tptr][0] == want:
            lane = g.trigs[g.tptr][1]
            g.tptr += 1
            row = row_of.get(lane)
            if row is None:
                continue  # lane retired before its trigger
            if self._inject_lane(g, row, lane):
                peel.append(lane)
        return peel

    def _inject_lane(self, g: _Group, row: int, lane: int) -> bool:
        """One lane's SEU — the exact victim-selection walk of
        ``Interpreter._inject`` over this group's frame stack.  A flip
        landing on a uniform slot widens it into a column (unless the
        flip was masked and the value is unchanged).  Returns whether the
        lane must leave lockstep (skip / control-flow kinds)."""
        plan = self._plans[lane]
        if plan.kind == "branch":
            if not self._invert[lane]:
                self._invert[lane] = True
                self._n_invert += 1
            return False
        if plan.kind == "addr":
            if self._corrupt[lane] is None:
                self._n_corrupt += 1
            self._corrupt[lane] = plan.bit
            return False
        if plan.kind in SKIP_KINDS:
            self._skip[lane] = plan.burst_len
            return True
        if plan.kind == "cf":
            self._cf[lane] = plan.pick
            return True
        slots: List[Tuple[list, int]] = []
        for frame in g.frames:
            fregs = frame.regs
            named = sorted(
                (frame.names[s], s)
                for s in range(len(fregs)) if fregs[s] is not _UNDEF
            )
            slots.extend((fregs, s) for _name, s in named)
        if not slots:
            return False
        nfile = max(REGISTER_FILE_SIZE, len(slots))
        k = int(plan.pick * nfile)
        if k >= len(slots):
            return False  # landed on a slot holding no live value: masked
        fregs, s = slots[k]
        col = fregs[s]
        cls = col.__class__
        if cls is np.ndarray:
            col[row] = flip_value(col[row], plan.bit)
        elif cls is _SpCol:
            cur = col.exc.get(row, col.base)
            col.exc[row] = flip_value(cur, plan.bit)
        else:
            nv = flip_value(col, plan.bit)
            if nv is not col:  # flip_value returns its input when masked
                fregs[s] = _SpCol(col, {row: nv})
        return False

    def _scalar_inject(self, lane: int, frames: List[_SFrame],
                       plan: FaultPlan) -> None:
        """Scalar-path twin of :meth:`_inject_lane`."""
        if plan.kind == "branch":
            if not self._invert[lane]:
                self._invert[lane] = True
                self._n_invert += 1
            return
        if plan.kind == "addr":
            if self._corrupt[lane] is None:
                self._n_corrupt += 1
            self._corrupt[lane] = plan.bit
            return
        if plan.kind in SKIP_KINDS:
            self._skip[lane] = plan.burst_len
            return
        if plan.kind == "cf":
            self._cf[lane] = plan.pick
            return
        slots: List[Tuple[list, int]] = []
        for fr in frames:
            fregs = fr.regs
            named = sorted(
                (fr.names[s], s)
                for s in range(len(fregs)) if fregs[s] is not _UNDEF
            )
            slots.extend((fregs, s) for _name, s in named)
        if not slots:
            return
        nfile = max(REGISTER_FILE_SIZE, len(slots))
        k = int(plan.pick * nfile)
        if k >= len(slots):
            return
        fregs, s = slots[k]
        fregs[s] = flip_value(fregs[s], plan.bit)

    def _retarget_lane(self, lane: int, fname: str, correct: str) -> str:
        """Consume a pending control-flow fault: pick a wrong-but-valid
        block of the current function (``Interpreter._retarget`` twin)."""
        pick = self._cf[lane]
        self._cf[lane] = None
        candidates = [lab for lab in self._succ[fname][1] if lab != correct]
        if not candidates:
            return correct
        return candidates[int(pick * len(candidates)) % len(candidates)]

    # -- retirement / splitting --------------------------------------------
    def _bind_lane(self, lane: int, gmem: dict, brk) -> None:
        """Freeze a finished/retired lane's memory view."""
        self._lmems[lane] = _LaneMem(
            self._tcells, self._globals, self._size,
            gmem, self._ovs[lane], brk)

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
        snap = None
        brks = g.brks
        for row, exc in dead.items():
            trap, det = classify_trap(exc)
            lane = g.rows[row]
            self._results[lane] = LaneResult(
                None, g.steps, g.region_steps, trap, det)
            if snap is None:
                snap = dict(g.gmem)
            self._bind_lane(lane, snap, brks[row] if brks is not None else g.brk)
        keep = [i for i in range(len(g.rows)) if i not in dead]
        g.rows[:] = [g.rows[i] for i in keep]
        g.row_of = {lane: i for i, lane in enumerate(g.rows)}
        n = len(keep)
        if n:
            big = n > SCALAR_CUTOFF
            remap = {old: j for j, old in enumerate(keep)}
            for frame in g.frames:
                regs = frame.regs
                for s, col in enumerate(regs):
                    cls = col.__class__
                    if cls is np.ndarray:
                        ncol = col[keep]
                        if big:
                            val = _try_collapse(ncol, n)
                            if val is not _MISS:
                                regs[s] = val
                                continue
                        regs[s] = ncol
                    elif cls is _SpCol:
                        nexc = {}
                        for r, v in col.exc.items():
                            nr = remap.get(r)
                            if nr is not None:
                                nexc[nr] = v
                        regs[s] = _SpCol(col.base, nexc) if nexc else col.base
            if brks is not None:
                nb = brks[keep]
                val = _try_collapse(nb, n)
                if val is not _MISS:
                    g.brk = val
                    g.brks = None
                else:
                    g.brks = nb
            self._prune_dirty(g)
        return keep

    def _retire_all(self, g: _Group, exc: BaseException) -> None:
        trap, det = classify_trap(exc)
        brks = g.brks
        for i, lane in enumerate(g.rows):
            self._results[lane] = LaneResult(None, g.steps, g.region_steps, trap, det)
            self._bind_lane(lane, g.gmem, brks[i] if brks is not None else g.brk)
        g.rows[:] = []

    def _fork(self, g: _Group, sel: List[int], reuse: bool) -> _Group:
        """A child group of the selected rows, at the parent's position.
        The first child of a split (``reuse=True``) adopts the parent's
        write layer wholesale; later children take copies.  Columns that
        became uniform within the child collapse back to scalars."""
        rows = [g.rows[i] for i in sel]
        n = len(rows)
        big = n > SCALAR_CUTOFF
        remap = {old: j for j, old in enumerate(sel)}
        frames = []
        for fr in g.frames:
            nregs = []
            for col in fr.regs:
                cls = col.__class__
                if cls is np.ndarray:
                    ncol = col[sel]
                    if big:
                        val = _try_collapse(ncol, n)
                        if val is not _MISS:
                            nregs.append(val)
                            continue
                    nregs.append(ncol)
                elif cls is _SpCol:
                    nexc = {}
                    for r, v in col.exc.items():
                        nr = remap.get(r)
                        if nr is not None:
                            nexc[nr] = v
                    nregs.append(_SpCol(col.base, nexc) if nexc else col.base)
                else:
                    nregs.append(col)
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
            nb = g.brks[sel]
            val = _try_collapse(nb, n)
            if val is not _MISS:
                child.brk = val
            else:
                child.brks = nb
        if big:
            self._prune_dirty(child)
        return child

    # -- public API ---------------------------------------------------------
    def run(self, func_name: str = "main", args: Sequence = ()) -> List[LaneResult]:
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
        work = [group]
        # Python float math on lane values sets hardware FP flags (inf*0,
        # overflowing divides) that numpy reports as RuntimeWarnings after
        # each object-loop ufunc; the values themselves are the exact
        # Python results, so the flags carry no information here.
        with np.errstate(all="ignore"):
            while work:
                self._run_group(work.pop(), work)
        results = []
        for lane in range(self.n_lanes):
            res = self._results[lane]
            assert res is not None, f"lane {lane} neither finished nor retired"
            results.append(res)
        return results

    # -- the lockstep machine ----------------------------------------------
    def _run_group(self, g: _Group, work: List[_Group]) -> None:
        """Run one group until every lane retires/finishes or it splits."""
        module = self.module
        tables = self._tables
        ovs = self._ovs
        tcells = self._tcells
        rows = g.rows
        max_steps = self.max_steps
        msize = self._size
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
                    self._scalar_finish(g)
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
                        peel = self._fire_triggers(g)
                        if peel:
                            # skip/cf lanes diverge at this very instruction,
                            # which has not executed yet: rewind it so both
                            # children re-fetch it — the lockstep rest runs it
                            # normally, the peeled lanes drop/retarget it on
                            # the scalar loop (triggers at this step are all
                            # consumed, so nothing re-fires)
                            frame.pc = pc - 1
                            g.steps = steps - 1
                            g.region_steps = rsteps - 1
                            peel_set = set(peel)
                            sel_rest = [i for i, ln in enumerate(rows)
                                        if ln not in peel_set]
                            sel_peel = [i for i, ln in enumerate(rows)
                                        if ln in peel_set]
                            if sel_rest:
                                work.append(self._fork(g, sel_rest, True))
                            faulted = self._fork(g, sel_peel, not sel_rest)
                            self._scalar_finish(faulted)
                            return
                        ntrig1 = (g.trigs[g.tptr][0] + 1) \
                            if g.tptr < len(g.trigs) else -9

                # ---- value ops ------------------------------------------
                if code <= _SELECT:
                    k, v, _o = ops[0]
                    a = regs[v] if k else v
                    nops = len(ops)
                    b = c = None
                    cls = a.__class__
                    dense = cls is np.ndarray
                    sp = cls is _SpCol
                    if nops > 1:
                        k, v, _o = ops[1]
                        b = regs[v] if k else v
                        cls = b.__class__
                        if cls is np.ndarray:
                            dense = True
                        elif cls is _SpCol:
                            sp = True
                        if nops > 2:
                            k, v, _o = ops[2]
                            c = regs[v] if k else v
                            cls = c.__class__
                            if cls is np.ndarray:
                                dense = True
                            elif cls is _SpCol:
                                sp = True

                    if not dense and not sp:
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
                                res = _uop(code, extra, a, b, c)
                        except TRIAL_TRAPS as exc:
                            g.steps = steps
                            g.region_steps = rsteps
                            self._retire_all(g, exc)
                            return
                        regs[dest] = res
                        continue

                    if not dense:
                        # ---- sparse operands: base once, then exceptions
                        if code == _MOV:
                            regs[dest] = _SpCol(a.base, dict(a.exc))
                            continue
                        rows_u = set(a.exc) if a.__class__ is _SpCol else set()
                        if b is not None and b.__class__ is _SpCol:
                            rows_u.update(b.exc)
                        if c is not None and c.__class__ is _SpCol:
                            rows_u.update(c.exc)
                        if len(rows_u) * 4 < L:
                            try:
                                rbase = _sop(code, extra, _at(a, -1),
                                             _at(b, -1), _at(c, -1))
                                rexc = {}
                                tb = rbase.__class__
                                for r in rows_u:
                                    rv_ = _sop(code, extra, _at(a, r),
                                               _at(b, r), _at(c, r))
                                    if rv_.__class__ is tb and rv_ == rbase:
                                        continue  # lane reconverged: drop
                                    rexc[r] = rv_
                                regs[dest] = \
                                    _SpCol(rbase, rexc) if rexc else rbase
                                continue
                            except TRIAL_TRAPS:
                                pass  # refine per lane on the dense path
                        # exception set too wide (or a lane trapped):
                        # materialize and take the dense path below

                    # ---- divergent operands: vectorized path ------------
                    if a.__class__ is _SpCol:
                        a = _dense(a, L)
                    if b is not None and b.__class__ is _SpCol:
                        b = _dense(b, L)
                    if c is not None and c.__class__ is _SpCol:
                        c = _dense(c, L)
                    if code == _MOV:
                        regs[dest] = a.copy()  # a is the column here
                        continue
                    if a.__class__ is np.ndarray:
                        av = a
                    elif ops[0][0]:
                        av = np.array(a, dtype=object)  # uniform reg value
                    else:
                        av = ops[0][2]                  # pre-wrapped const
                    if nops > 1:
                        if b.__class__ is np.ndarray:
                            bv = b
                        elif ops[1][0]:
                            bv = np.array(b, dtype=object)
                        else:
                            bv = ops[1][2]

                    res = None
                    try:
                        if code == _FMUL:
                            res = np.multiply(av, bv)
                        elif code == _FADD or code == _ADD:
                            res = np.add(av, bv)
                        elif code == _FSUB or code == _SUB:
                            res = np.subtract(av, bv)
                        elif code == _MUL:
                            res = np.multiply(av, bv)
                            if res.__class__ is np.ndarray:
                                for i in range(L):
                                    r = res[i]
                                    if r.__class__ is int and \
                                            (r > _HUGE_INT or r < -_HUGE_INT):
                                        res[i] = r & _INT_MASK64
                            elif isinstance(res, int) and \
                                    (res > _HUGE_INT or res < -_HUGE_INT):
                                res &= _INT_MASK64
                        elif code == _ICMP or code == _FCMP:
                            if extra == 2:
                                r = av < bv
                            elif extra == 0:
                                r = av == bv
                            elif extra == 4:
                                r = av > bv
                            elif extra == 3:
                                r = av <= bv
                            elif extra == 5:
                                r = av >= bv
                            else:
                                r = av != bv
                            # bool-dtype result -> native Python 1/0 ints
                            # (astype(object) materializes Python int)
                            if r.__class__ is np.ndarray:
                                res = r.astype(np.int64).astype(object)
                            else:  # 0d-0d compare collapsed to scalar
                                res = 1 if r else 0
                        elif code == _FDIV:
                            res = np.divide(av, bv)
                    except TRIAL_TRAPS:
                        res = None  # refine per lane below
                    except ZeroDivisionError:
                        res = None

                    if res is not None:
                        if res.__class__ is not np.ndarray:
                            col = np.empty(L, dtype=object)
                            col[:] = res
                            res = col
                        elif res.ndim == 0:
                            col = np.empty(L, dtype=object)
                            col[:] = res.item()
                            res = col
                        regs[dest] = res
                        continue

                    # per-lane: cold ops and lane-local trap refinement
                    srcs = []
                    for x in (a, b, c)[:nops]:
                        if x.__class__ is np.ndarray:
                            srcs.append((x, None))
                        else:
                            srcs.append((None, x))
                    out = np.empty(L, dtype=object)
                    dead = None
                    for i in range(L):
                        try:
                            out[i] = _scalar_eval(code, extra, srcs, i)
                        except TRIAL_TRAPS as exc:
                            if dead is None:
                                dead = {}
                            dead[i] = exc
                    if dead is not None:
                        g.steps = steps
                        g.region_steps = rsteps
                        keep = self._retire_rows(g, dead)
                        if not rows:
                            return
                        out = out[keep]
                    regs[dest] = out
                    continue

                # ---- memory ops (copy-on-write layers) ------------------
                if code == _LOAD:
                    k, v, _o = ops[0]
                    a = regs[v] if k else v
                    gmem = g.gmem
                    cls = a.__class__
                    if cls is not np.ndarray and cls is not _SpCol \
                            and not self._n_corrupt:
                        # uniform address, no pending addr faults
                        if type(a) is int and 8 <= a < msize:
                            idx = a
                        else:
                            try:
                                idx = _check_addr(a, msize)
                            except SegfaultError as exc:
                                g.steps = steps
                                g.region_steps = rsteps
                                self._retire_all(g, exc)
                                return
                        vbase = gmem.get(idx, _MISS)
                        if vbase is _MISS:
                            vbase = tcells[idx]
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
                    if cls is _SpCol and not self._n_corrupt:
                        # near-uniform address: resolve the base once and
                        # the exception lanes' own addresses individually
                        try:
                            ab = a.base
                            if type(ab) is int and 8 <= ab < msize:
                                idx = ab
                            else:
                                idx = _check_addr(ab, msize)
                            vbase = gmem.get(idx, _MISS)
                            if vbase is _MISS:
                                vbase = tcells[idx]
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
                                    idx2 = _check_addr(av_, msize)
                                v_ = ovs[rows[r]].get(idx2, _MISS)
                                if v_ is _MISS:
                                    v_ = gmem.get(idx2, _MISS)
                                    if v_ is _MISS:
                                        v_ = tcells[idx2]
                                rexc[r] = v_
                            tb = vbase.__class__
                            for r in [r for r, v_ in rexc.items()
                                      if v_.__class__ is tb and v_ == vbase]:
                                del rexc[r]
                            regs[dest] = \
                                _SpCol(vbase, rexc) if rexc else vbase
                            continue
                        except SegfaultError:
                            a = _dense(a, L)  # a lane traps: refine below
                    # column address and/or an addr-fault window is open
                    acol = a if a.__class__ is np.ndarray else None
                    corrupt = self._corrupt
                    out = np.empty(L, dtype=object)
                    dead = None
                    for i in range(L):
                        addr = acol[i] if acol is not None else _at(a, i)
                        lane = rows[i]
                        if corrupt[lane] is not None:
                            bit = corrupt[lane]
                            corrupt[lane] = None
                            self._n_corrupt -= 1
                            if isinstance(addr, int):
                                addr = addr ^ (1 << (bit % 24))
                        try:
                            if type(addr) is int and 8 <= addr < msize:
                                idx = addr
                            else:
                                idx = _check_addr(addr, msize)
                        except SegfaultError as exc:
                            if dead is None:
                                dead = {}
                            dead[i] = exc
                            continue
                        val = ovs[lane].get(idx, _MISS)
                        if val is _MISS:
                            val = gmem.get(idx, _MISS)
                            if val is _MISS:
                                val = tcells[idx]
                        out[i] = val
                    if dead is not None:
                        g.steps = steps
                        g.region_steps = rsteps
                        keep = self._retire_rows(g, dead)
                        if not rows:
                            return
                        out = out[keep]
                        L = len(rows)
                    val = _try_collapse(out, L)
                    regs[dest] = out if val is _MISS else val
                    continue

                if code == _STORE:
                    k, v, _o = ops[0]
                    val0 = regs[v] if k else v
                    ka, va, _o = ops[1]
                    addr0 = regs[va] if ka else va
                    gmem = g.gmem
                    dirty = g.dirty
                    if addr0.__class__ is not np.ndarray \
                            and addr0.__class__ is not _SpCol \
                            and not self._n_corrupt:
                        if type(addr0) is int and 8 <= addr0 < msize:
                            idx = addr0
                        else:
                            try:
                                idx = _check_addr(addr0, msize)
                            except SegfaultError as exc:
                                g.steps = steps
                                g.region_steps = rsteps
                                self._retire_all(g, exc)
                                return
                        vcls = val0.__class__
                        if vcls is not np.ndarray and vcls is not _SpCol:
                            # uniform store: lands in the group layer and
                            # re-cleans any stale per-lane overlay entries
                            writers = dirty.pop(idx, None)
                            if writers:
                                row_of = g.row_of
                                for lane in writers:
                                    if lane in row_of:
                                        ovs[lane].pop(idx, None)
                            gmem[idx] = val0
                        elif vcls is _SpCol:
                            # near-uniform store: base to the group layer,
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
                        else:
                            for i in range(L):
                                ovs[rows[i]][idx] = val0[i]
                            dirty[idx] = set(rows)
                        continue
                    acol = addr0 if addr0.__class__ is np.ndarray else None
                    vcol = val0 if val0.__class__ is np.ndarray else None
                    corrupt = self._corrupt
                    dead = None
                    for i in range(L):
                        addr = acol[i] if acol is not None else _at(addr0, i)
                        lane = rows[i]
                        if corrupt[lane] is not None:
                            bit = corrupt[lane]
                            corrupt[lane] = None
                            self._n_corrupt -= 1
                            if isinstance(addr, int):
                                addr = addr ^ (1 << (bit % 24))
                        try:
                            if type(addr) is int and 8 <= addr < msize:
                                idx = addr
                            else:
                                idx = _check_addr(addr, msize)
                        except SegfaultError as exc:
                            if dead is None:
                                dead = {}
                            dead[i] = exc
                            continue
                        ovs[lane][idx] = \
                            vcol[i] if vcol is not None else _at(val0, i)
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
                    k, v, _o = ops[0]
                    a = regs[v] if k else v
                    cls = a.__class__
                    if cls is _SpCol and not self._n_invert:
                        # near-uniform condition: only exception lanes can
                        # disagree with the base direction
                        tb = a.base != 0 and a.base == a.base
                        div = sorted(
                            r for r, v_ in a.exc.items()
                            if (v_ != 0 and v_ == v_) != tb)
                        if not div:
                            frame.label = extra[1] if tb else extra[2]
                            frame.pc = 0
                            break
                        div_set = set(div)
                        others = [i for i in range(L) if i not in div_set]
                        taken_sel, fall_sel = \
                            (others, div) if tb else (div, others)
                    else:
                        if cls is np.ndarray:
                            takens = [x != 0 and x == x for x in a]
                        elif cls is _SpCol:
                            tb = a.base != 0 and a.base == a.base
                            takens = [tb] * L
                            for r, v_ in a.exc.items():
                                takens[r] = v_ != 0 and v_ == v_
                        else:
                            t0 = a != 0 and a == a  # NaN falls through
                            if not self._n_invert:
                                frame.label = extra[1] if t0 else extra[2]
                                frame.pc = 0
                                break
                            takens = [t0] * L
                        if self._n_invert:
                            invert = self._invert
                            for i in range(L):
                                lane = rows[i]
                                if invert[lane]:
                                    takens[i] = not takens[i]
                                    invert[lane] = False
                                    self._n_invert -= 1
                        first = takens[0]
                        if takens.count(first) == L:
                            frame.label = extra[1] if first else extra[2]
                            frame.pc = 0
                            break
                        taken_sel = [i for i, t in enumerate(takens) if t]
                        fall_sel = [i for i, t in enumerate(takens) if not t]
                    frame.pc = pc
                    g.steps = steps
                    g.region_steps = rsteps
                    pairs = [(taken_sel, extra[1]), (fall_sel, extra[2])]
                    if len(fall_sel) > len(taken_sel):
                        pairs.reverse()  # bigger child adopts the layers
                    for j, (sel, target) in enumerate(pairs):
                        child = self._fork(g, sel, j == 0)
                        top = child.frames[-1]
                        top.label = target
                        top.pc = 0
                        work.append(child)
                    return

                if code == _BR:
                    frame.label = extra
                    frame.pc = 0
                    break

                if code == _RET:
                    n = len(ops)
                    rv = None
                    if n:
                        k, v, _o = ops[0]
                        rv = regs[v] if k else v
                    g.frames.pop()
                    if not g.frames:
                        g.steps = steps
                        g.region_steps = rsteps
                        gmem = g.gmem
                        brks = g.brks
                        for i in range(L):
                            lane = rows[i]
                            self._results[lane] = LaneResult(
                                _at(rv, i),
                                g.steps, g.region_steps, None, False, True)
                            self._bind_lane(
                                lane, gmem,
                                brks[i] if brks is not None else g.brk)
                        g.rows[:] = []
                        return
                    caller = g.frames[-1]
                    rd = frame.ret_dest
                    if rd is not None:
                        rcls = rv.__class__
                        if rcls is np.ndarray:
                            caller.regs[rd] = rv.copy()
                        elif rcls is _SpCol:
                            caller.regs[rd] = _SpCol(rv.base, dict(rv.exc))
                        else:
                            caller.regs[rd] = rv
                    frame = caller
                    break

                if code == _CALL:
                    callee = module.functions.get(extra)
                    if callee is None:
                        g.steps = steps
                        g.region_steps = rsteps
                        self._retire_all(
                            g, CoreDumpError(f"call to unknown function @{extra}"))
                        return
                    if len(g.frames) > MAX_CALL_DEPTH:
                        g.steps = steps
                        g.region_steps = rsteps
                        self._retire_all(
                            g, CoreDumpError(f"call depth exceeded in @{callee.name}"))
                        return
                    frame.pc = pc
                    nf = self._make_frame(callee, dest)
                    for p, (k, v, _o) in zip(callee.params, ops):
                        s = nf.slot_of[p.name]
                        if k:
                            x = regs[v]
                            xcls = x.__class__
                            if xcls is np.ndarray:
                                nf.regs[s] = x.copy()
                            elif xcls is _SpCol:
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
                    for k, v, _o in ops:
                        x = regs[v] if k else v
                        xcls = x.__class__
                        if xcls is np.ndarray or xcls is _SpCol:
                            uni = False
                        vals.append(x)
                    if uni and self._shared:
                        # one stateless table, identical arguments: the
                        # whole group is a single call
                        fn = tables[0].get(extra)
                        if fn is None:
                            g.steps = steps
                            g.region_steps = rsteps
                            self._retire_all(
                                g, CoreDumpError(f"unknown intrinsic {extra!r}"))
                            return
                        try:
                            rv, charge = fn(None, tuple(vals))
                        except TRIAL_TRAPS as exc:
                            g.steps = steps
                            g.region_steps = rsteps
                            self._retire_all(g, exc)
                            return
                        if dest is not None:
                            regs[dest] = rv
                        steps += len(charge)
                        continue
                    out = np.empty(L, dtype=object)
                    clens = [0] * L
                    dead = None
                    for i in range(L):
                        lane = rows[i]
                        try:
                            fn = tables[lane].get(extra)
                            if fn is None:
                                raise CoreDumpError(f"unknown intrinsic {extra!r}")
                            lvals = tuple(_at(x, i) for x in vals)
                            rv, charge = fn(None, lvals)
                            out[i] = rv
                            clens[i] = len(charge)
                        except TRIAL_TRAPS as exc:
                            if dead is None:
                                dead = {}
                            dead[i] = exc
                    if dead is not None:
                        g.steps = steps
                        g.region_steps = rsteps
                        keep = self._retire_rows(g, dead)
                        if not rows:
                            return
                        out = out[keep]
                        clens = [clens[i] for i in keep]
                        L = len(rows)
                    if dest is not None:
                        val = _try_collapse(out, L)
                        regs[dest] = out if val is _MISS else val
                    lens = set(clens)
                    if len(lens) == 1:
                        steps += clens[0]
                        continue
                    # state-dependent predictor charges diverged: split
                    frame.pc = pc
                    g.steps = steps
                    g.region_steps = rsteps
                    first = True
                    for clen in sorted(lens):
                        sel = [i for i, cl in enumerate(clens) if cl == clen]
                        child = self._fork(g, sel, first)
                        first = False
                        child.steps += clen
                        work.append(child)
                    return

                if code == _ALLOC:
                    k, v, _o = ops[0]
                    a = regs[v] if k else v
                    if a.__class__ is not np.ndarray \
                            and a.__class__ is not _SpCol and g.brks is None:
                        sz = int(a)
                        if sz <= 0:
                            g.steps = steps
                            g.region_steps = rsteps
                            self._retire_all(g, SegfaultError(
                                g.brk, f"allocation of non-positive size {sz}"))
                            return
                        base = g.brk
                        g.brk = base + sz
                        if g.brk > msize:
                            g.steps = steps
                            g.region_steps = rsteps
                            self._retire_all(g, SegfaultError(base, "out of memory"))
                            return
                        regs[dest] = base
                        continue
                    if g.brks is None:
                        brks = np.empty(L, dtype=object)
                        brks[:] = g.brk
                        g.brks = brks
                    else:
                        brks = g.brks
                    out = np.empty(L, dtype=object)
                    dead = None
                    for i in range(L):
                        sz = int(_at(a, i))
                        try:
                            base = brks[i]
                            if sz <= 0:
                                raise SegfaultError(
                                    base, f"allocation of non-positive size {sz}")
                            nb = base + sz
                            brks[i] = nb  # the reference bumps before the check
                            if nb > msize:
                                raise SegfaultError(base, "out of memory")
                            out[i] = base
                        except TRIAL_TRAPS as exc:
                            if dead is None:
                                dead = {}
                            dead[i] = exc
                    if dead is not None:
                        g.steps = steps
                        g.region_steps = rsteps
                        keep = self._retire_rows(g, dead)
                        if not rows:
                            return
                        out = out[keep]
                    regs[dest] = out
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

    # -- scalar continuation ------------------------------------------------
    def _scalar_finish(self, g: _Group) -> None:
        """Hand every lane of a small group to the per-lane scalar loop.
        Each lane gets its own composed memory view over the group's now-
        frozen write layer; further stores land in the lane overlay."""
        pending = {}
        for step, lane in g.trigs[g.tptr:]:
            pending[lane] = step
        brks = g.brks
        for i, lane in enumerate(g.rows):
            self._bind_lane(lane, g.gmem,
                            brks[i] if brks is not None else g.brk)
            frames = [
                _SFrame(fr.fname, fr.blocks, fr.names,
                        [_at(col, i) for col in fr.regs],
                        fr.label, fr.pc, fr.ret_dest)
                for fr in g.frames
            ]
            self._results[lane] = self._run_scalar_lane(
                lane, frames, g.steps, g.region_steps, pending.get(lane))
        g.rows[:] = []

    def _run_scalar_lane(
        self,
        lane: int,
        frames: List[_SFrame],
        steps: int,
        region_steps: int,
        pending: Optional[int],
    ) -> LaneResult:
        """Finish one lane on a slot-indexed scalar loop.

        This is the reference interpreter's ``_exec`` restated over the
        batch decode (slot lists instead of name dicts) so it can resume
        from mid-execution state; every operator expression, trap
        conversion and counter update matches instruction-for-instruction.
        """
        mem = self._lmems[lane]
        table = self._tables[lane]
        module = self.module
        max_steps = self.max_steps
        plan = self._plans[lane]
        invert = self._invert
        corrupt = self._corrupt
        skip_left = self._skip
        cf = self._cf
        may_skip = plan is not None and plan.kind in SKIP_KINDS
        may_ctrl = plan is not None and plan.kind in CONTROL_KINDS

        frame = frames[-1]
        blocks = frame.blocks
        label = frame.label
        instrs = blocks[label]
        num = len(instrs)
        pc = frame.pc
        regs = frame.regs
        try:
            while True:
                if pc == num:
                    raise CoreDumpError(
                        f"block {label} of @{frame.fname} fell through "
                        f"without terminator"
                    )
                code, dest, ops, extra, in_region = instrs[pc]
                pc += 1
                steps += 1
                if steps > max_steps:
                    raise HangError(steps)
                if in_region:
                    region_steps += 1
                    if pending is not None and region_steps - 1 == pending:
                        pending = None
                        self._scalar_inject(lane, frames, plan)
                if may_skip and skip_left[lane]:
                    # drop this instruction's effects; a dropped terminator
                    # falls through to the next block in layout order
                    skip_left[lane] -= 1
                    if code == _BR or code == _CBR or code == _RET:
                        nxt = self._succ[frame.fname][0][label]
                        if nxt is None:
                            raise CoreDumpError(
                                f"block {label} of @{frame.fname} fell "
                                f"through without terminator")
                        label = nxt
                        instrs = blocks[label]
                        num = len(instrs)
                        pc = 0
                        frame.label = label
                    continue

                n = len(ops)
                if n > 0:
                    k, v, _o = ops[0]
                    a = regs[v] if k else v
                    if may_ctrl and a is _UNDEF:
                        raise CoreDumpError(
                            f"read of uninitialized register "
                            f"%{frame.names[v]}")
                    if n > 1:
                        k, v, _o = ops[1]
                        b = regs[v] if k else v
                        if may_ctrl and b is _UNDEF:
                            raise CoreDumpError(
                                f"read of uninitialized register "
                                f"%{frame.names[v]}")

                if code == _LOAD:
                    if corrupt[lane] is not None:
                        bit = corrupt[lane]
                        corrupt[lane] = None
                        self._n_corrupt -= 1
                        if isinstance(a, int):
                            a = a ^ (1 << (bit % 24))
                    regs[dest] = mem.load(a)
                    continue
                if code == _FMUL:
                    regs[dest] = a * b
                elif code == _FADD:
                    regs[dest] = a + b
                elif code == _FSUB:
                    regs[dest] = a - b
                elif code == _ADD:
                    regs[dest] = a + b
                elif code == _MOV:
                    regs[dest] = a
                elif code == _MUL:
                    r = a * b
                    if isinstance(r, int) and (r > _HUGE_INT or r < -_HUGE_INT):
                        r &= _INT_MASK64
                    regs[dest] = r
                elif code == _SUB:
                    regs[dest] = a - b
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
                    regs[dest] = 1 if r else 0
                elif code == _CBR:
                    taken = a != 0 and a == a  # NaN condition falls through
                    if invert[lane]:
                        taken = not taken
                        invert[lane] = False
                        self._n_invert -= 1
                    label = extra[1] if taken else extra[2]
                    if cf[lane] is not None:
                        label = self._retarget_lane(lane, frame.fname, label)
                    instrs = blocks[label]
                    num = len(instrs)
                    pc = 0
                    frame.label = label
                elif code == _BR:
                    label = extra
                    if cf[lane] is not None:
                        label = self._retarget_lane(lane, frame.fname, label)
                    instrs = blocks[label]
                    num = len(instrs)
                    pc = 0
                    frame.label = label
                elif code == _STORE:
                    if corrupt[lane] is not None:
                        bit = corrupt[lane]
                        corrupt[lane] = None
                        self._n_corrupt -= 1
                        if isinstance(b, int):
                            b = b ^ (1 << (bit % 24))
                    mem.store(b, a)
                elif code == _RET:
                    value = a if n else None
                    frames.pop()
                    if not frames:
                        return LaneResult(
                            value, steps, region_steps, None, False, True)
                    rd = frame.ret_dest
                    frame = frames[-1]
                    blocks = frame.blocks
                    label = frame.label
                    instrs = blocks[label]
                    num = len(instrs)
                    pc = frame.pc
                    regs = frame.regs
                    if rd is not None:
                        regs[rd] = value
                elif code == _CALL:
                    callee = module.functions.get(extra)
                    if callee is None:
                        raise CoreDumpError(f"call to unknown function @{extra}")
                    if len(frames) > MAX_CALL_DEPTH:
                        raise CoreDumpError(
                            f"call depth exceeded in @{callee.name}")
                    frame.label = label
                    frame.pc = pc
                    entry, cblocks, cnames, _slot_of = self._decode(callee)
                    cregs = [_UNDEF] * len(cnames)
                    # parameters occupy slots 0..P-1 in declaration order
                    # (decode assigns them first); surplus args truncate
                    # exactly like the reference's zip
                    for j in range(min(len(callee.params), n)):
                        k, v, _o = ops[j]
                        x = regs[v] if k else v
                        if may_ctrl and x is _UNDEF:
                            raise CoreDumpError(
                                f"read of uninitialized register "
                                f"%{frame.names[v]}")
                        cregs[j] = x
                    nf = _SFrame(callee.name, cblocks, cnames, cregs,
                                 entry, 0, dest)
                    frames.append(nf)
                    frame = nf
                    blocks = cblocks
                    label = entry
                    instrs = blocks[label]
                    num = len(instrs)
                    pc = 0
                    regs = cregs
                elif code == _INTRIN:
                    fn = table.get(extra)
                    if fn is None:
                        raise CoreDumpError(f"unknown intrinsic {extra!r}")
                    vals = tuple(regs[v] if k else v for k, v, _o in ops)
                    if may_ctrl:
                        for x, (k, v, _o) in zip(vals, ops):
                            if x is _UNDEF:
                                raise CoreDumpError(
                                    f"read of uninitialized register "
                                    f"%{frame.names[v]}")
                    rv, charge = fn(None, vals)
                    steps += len(charge)
                    if dest is not None:
                        regs[dest] = rv
                elif code == _SDIV:
                    try:
                        q = abs(a) // abs(b)
                        regs[dest] = q if (a >= 0) == (b >= 0) else -q
                    except ZeroDivisionError:
                        raise CoreDumpError("integer division by zero") from None
                elif code == _SREM:
                    try:
                        regs[dest] = a - b * (abs(a) // abs(b)) * (
                            1 if (a >= 0) == (b >= 0) else -1)
                    except ZeroDivisionError:
                        raise CoreDumpError("integer remainder by zero") from None
                elif code == _FDIV:
                    try:
                        regs[dest] = a / b
                    except ZeroDivisionError:
                        regs[dest] = math.nan if a == 0 else math.copysign(math.inf, a)
                elif code == _FNEG:
                    regs[dest] = -a
                elif code == _FABS:
                    regs[dest] = abs(a)
                elif code == _SQRT:
                    regs[dest] = math.sqrt(a) if a >= 0 else math.nan
                elif code == _EXP:
                    try:
                        regs[dest] = math.exp(a)
                    except OverflowError:
                        regs[dest] = math.inf
                elif code == _LOG:
                    try:
                        regs[dest] = math.log(a)
                    except ValueError:
                        regs[dest] = math.nan
                elif code == _SIN:
                    regs[dest] = math.sin(a) if math.isfinite(a) else math.nan
                elif code == _COS:
                    regs[dest] = math.cos(a) if math.isfinite(a) else math.nan
                elif code == _FLOOR:
                    regs[dest] = math.floor(a) if math.isfinite(a) else a
                elif code == _SITOFP:
                    regs[dest] = float(a)
                elif code == _FPTOSI:
                    try:
                        regs[dest] = int(a)
                    except (ValueError, OverflowError):
                        raise CoreDumpError("float-to-int conversion trap") from None
                elif code == _SELECT:
                    k, v, _o = ops[2]
                    c = regs[v] if k else v
                    if may_ctrl and c is _UNDEF:
                        raise CoreDumpError(
                            f"read of uninitialized register "
                            f"%{frame.names[v]}")
                    regs[dest] = b if (a != 0 and a == a) else c
                elif code == _AND:
                    regs[dest] = int(a) & int(b)
                elif code == _OR:
                    regs[dest] = int(a) | int(b)
                elif code == _XOR:
                    regs[dest] = int(a) ^ int(b)
                elif code == _SHL:
                    r = int(a) << (int(b) & 63)
                    if r > _HUGE_INT or r < -_HUGE_INT:
                        r &= _INT_MASK64
                    regs[dest] = r
                elif code == _LSHR:
                    regs[dest] = (int(a) & _INT_MASK64) >> (int(b) & 63)
                elif code == _ALLOC:
                    regs[dest] = mem.allocate(int(a))
                else:  # pragma: no cover - all opcodes handled above
                    raise CoreDumpError(f"unimplemented opcode index {code}")
        except TRIAL_TRAPS as exc:
            trap, det = classify_trap(exc)
            return LaneResult(None, steps, region_steps, trap, det)


def _uop(code: int, extra, a, b, c):
    """Uniform-group dispatch for value ops outside the inlined hot set,
    mirroring the reference chain expression-for-expression (including
    every trap conversion)."""
    if code == _SDIV:
        try:
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q
        except ZeroDivisionError:
            raise CoreDumpError("integer division by zero") from None
    if code == _SREM:
        try:
            return a - b * (abs(a) // abs(b)) * (1 if (a >= 0) == (b >= 0) else -1)
        except ZeroDivisionError:
            raise CoreDumpError("integer remainder by zero") from None
    if code == _FDIV:
        try:
            return a / b
        except ZeroDivisionError:
            return math.nan if a == 0 else math.copysign(math.inf, a)
    if code == _FNEG:
        return -a
    if code == _FABS:
        return abs(a)
    if code == _SQRT:
        return math.sqrt(a) if a >= 0 else math.nan
    if code == _EXP:
        try:
            return math.exp(a)
        except OverflowError:
            return math.inf
    if code == _LOG:
        try:
            return math.log(a)
        except ValueError:
            return math.nan
    if code == _SIN:
        return math.sin(a) if math.isfinite(a) else math.nan
    if code == _COS:
        return math.cos(a) if math.isfinite(a) else math.nan
    if code == _FLOOR:
        return math.floor(a) if math.isfinite(a) else a
    if code == _SITOFP:
        return float(a)
    if code == _FPTOSI:
        try:
            return int(a)
        except (ValueError, OverflowError):
            raise CoreDumpError("float-to-int conversion trap") from None
    if code == _SELECT:
        return b if (a != 0 and a == a) else c
    if code == _AND:
        return int(a) & int(b)
    if code == _OR:
        return int(a) | int(b)
    if code == _XOR:
        return int(a) ^ int(b)
    if code == _SHL:
        r = int(a) << (int(b) & 63)
        if r > _HUGE_INT or r < -_HUGE_INT:
            r &= _INT_MASK64
        return r
    if code == _LSHR:
        return (int(a) & _INT_MASK64) >> (int(b) & 63)
    raise CoreDumpError(f"unimplemented opcode index {code}")


def _sop(code: int, extra, a, b, c):
    """One scalar application of any value op (hot ops inlined, the
    cold tail delegated to ``_uop``), mirroring the reference dispatch
    chain expression-for-expression including every trap conversion."""
    if code == _ADD or code == _FADD:
        return a + b
    if code == _SUB or code == _FSUB:
        return a - b
    if code == _FMUL:
        return a * b
    if code == _MOV:
        return a
    if code == _MUL:
        r = a * b
        if isinstance(r, int) and (r > _HUGE_INT or r < -_HUGE_INT):
            r &= _INT_MASK64
        return r
    if code == _ICMP or code == _FCMP:
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
        return 1 if r else 0
    return _uop(code, extra, a, b, c)


def _scalar_eval(code: int, extra, srcs, i: int):
    """One lane of a vector-path value op.  Used for cold ops and
    per-lane trap refinement."""
    col, const = srcs[0]
    a = col[i] if col is not None else const
    b = c = None
    if len(srcs) > 1:
        col, const = srcs[1]
        b = col[i] if col is not None else const
        if len(srcs) > 2:
            col, const = srcs[2]
            c = col[i] if col is not None else const
    return _sop(code, extra, a, b, c)
