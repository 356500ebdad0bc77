"""Closure-compiling execution backend.

Lowers each function once into *threaded code*: every basic block becomes
a list of specialized Python closures over a slot-indexed register file
(a plain list — register names are resolved to integer slots at compile
time, so the hot loop never touches a dict).  Operand fetch is specialized
per operand (constant folded into the generated source, register slot
index baked in, global address resolved through a per-run table), and
comparison predicates are baked into the generated expression.  Runs of
straight-line instructions are fused into a single *superinstruction*
closure that bumps ``steps`` and the per-opcode ``counts`` in bulk.

The backend serves **clean mode only** — no fault plan, no timing model,
no profile.  Instrumented runs stay on the reference
:class:`~repro.runtime.interpreter.Interpreter`; the dispatch lives in
:mod:`repro.runtime.backend`.  Clean also covers the rest of a faulted
batch lane once its fault has fully acted: ``CompiledExecutor.run(...,
state=...)`` continues such a lane's
:class:`~repro.runtime.interpreter.MachineState` (the batch engine's
tail, :mod:`repro.runtime.batch`).

Observational equivalence with the reference interpreter is a hard
contract (enforced by difftest oracle O4):

* identical ``RunResult.value``, ``steps``, per-opcode ``counts`` and
  memory state for completed runs;
* identical trap behaviour — ``CoreDumpError``/``SegfaultError`` at the
  same instruction, ``HangError`` with the exact same step count, and
  the same ``steps``/``region_steps`` after any trap.  Bulk accounting
  commits per fused segment *before* executing it; a segment that would
  cross ``max_steps`` is re-executed instruction-by-instruction with
  reference accounting, so the hang — or any trap that precedes it —
  surfaces exactly where the reference interpreter raises it.  A trap
  inside a segment is mapped from the generated line it raised at back
  to its instruction, and the counters are corrected to that point;
* the same value-op semantics: the hot ops (MOV, ADD/FADD, SUB/FSUB,
  FMUL, MUL with its lazy 64-bit wrap, ICMP/FCMP) are generated inline,
  every other value op is a call to its :mod:`repro.runtime.semantics`
  function; and the same NaN branch rule (a NaN condition falls through).

Compiled programs are cached module-fingerprint-keyed (sha256 of the
printed module text), so campaign workers and the difftest runner pay
compilation once per distinct module per process.  As with the reference
interpreter's decoded-instruction cache, transforming a module in place
invalidates nothing by identity — the fingerprint changes, so the next
:func:`compile_module` call recompiles.
"""
from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.function import Function
from ..ir.instructions import Opcode
from ..ir.module import Module
from ..ir.printer import format_module
from ..ir.values import Const, GlobalAddr, Reg
from ..obs.events import enabled as obs_enabled, span as obs_span
from .errors import TRIAL_TRAPS, CoreDumpError, HangError
from .interpreter import (
    DEFAULT_MAX_STEPS,
    MAX_CALL_DEPTH,
    OPERAND_ARITY,
    IntrinsicFn,
    MachineState,
    RunResult,
)
from .memory import Memory
from .semantics import CODE as _CODE, HUGE_INT, INT_MASK64, OPCODES, OPS, PRED as _PRED

_CALL = _CODE[Opcode.CALL]
_INTRIN = _CODE[Opcode.INTRIN]
_BR = _CODE[Opcode.BR]
_CBR = _CODE[Opcode.CBR]
_RET = _CODE[Opcode.RET]
_TERMINATORS = (_BR, _CBR, _RET)
#: codes that write a result register (used to route a missing dest to the
#: scratch slot, mirroring the reference interpreter's ``regs[None] = ...``)
_VALUE_OPS = frozenset(
    _CODE[op] for op in Opcode
    if op not in (Opcode.STORE, Opcode.BR, Opcode.CBR, Opcode.RET,
                  Opcode.CALL, Opcode.INTRIN)
)

_CMP_SYMBOL = {0: "==", 1: "!=", 2: "<", 3: "<=", 4: ">", 5: ">="}


#: globals every generated closure is exec'd against: the wrap constants
#: of the inlined MUL template and, as ``_<opcode>``, every semantics-table
#: function the cold value ops call
_BASE_ENV = {
    "CoreDumpError": CoreDumpError,
    "HangError": HangError,
    "_H": HUGE_INT,
    "_M": INT_MASK64,
}
_BASE_ENV.update(
    (f"_{OPCODES[code].value}", fn) for code, fn in enumerate(OPS) if fn)


# -- record decoding ----------------------------------------------------------
def _decode_function(func: Function, gindex: Dict[str, int]):
    """Lower *func* to per-block instruction records over register slots.

    Returns ``(slots, nregs, nparams, labels, records, undeclared)``
    (``slots`` maps register names to slot indices) where each
    record is ``[code, dest_slot_or_None, specs, extra]`` and a spec is
    ``("r", slot) | ("c", value) | ("gi", global_index) | ("gn", name)``.
    Blocks are truncated after their first terminator (the reference
    interpreter never executes trailing instructions either).
    """
    slots: Dict[str, int] = {}

    def slot(name: str) -> int:
        s = slots.get(name)
        if s is None:
            s = len(slots)
            slots[name] = s
        return s

    for p in func.params:
        slot(p.name)
    nparams = len(func.params)
    labels = list(func.block_order())
    lindex = {lbl: i for i, lbl in enumerate(labels)}
    undeclared: List[str] = []
    need_scratch = False
    records: List[List[list]] = []

    for lbl in labels:
        recs: List[list] = []
        for instr in func.blocks[lbl].instrs:
            code = _CODE[instr.op]
            want = OPERAND_ARITY[code]
            if want is not None and len(instr.args) not in want:
                raise CoreDumpError(
                    f"@{func.name}:{lbl}: {instr.op.value} expects "
                    f"{' or '.join(map(str, want))} operand(s), "
                    f"got {len(instr.args)}"
                )
            specs = []
            for v in instr.args:
                if isinstance(v, Reg):
                    specs.append(("r", slot(v.name)))
                elif isinstance(v, GlobalAddr):
                    gi = gindex.get(v.name)
                    if gi is None:
                        if v.name not in undeclared:
                            undeclared.append(v.name)
                        specs.append(("gn", v.name))
                    else:
                        specs.append(("gi", gi))
                else:
                    assert isinstance(v, Const)
                    specs.append(("c", v.value))
            if instr.op is Opcode.BR:
                extra = lindex[instr.labels[0]]
            elif instr.op is Opcode.CBR:
                extra = (lindex[instr.labels[0]], lindex[instr.labels[1]])
            elif instr.op in (Opcode.ICMP, Opcode.FCMP):
                extra = _PRED[instr.pred]
            elif instr.op in (Opcode.CALL, Opcode.INTRIN):
                extra = instr.callee
            else:
                extra = None
            if instr.dest is not None:
                dest = slot(instr.dest.name)
            elif code in _VALUE_OPS:
                need_scratch = True
                dest = -1  # patched to the scratch slot below
            else:
                dest = None
            recs.append([code, dest, tuple(specs), extra])
            if code in _TERMINATORS:
                break
        records.append(recs)

    nregs = len(slots)
    if need_scratch:
        scratch = nregs
        nregs += 1
        for recs in records:
            for rec in recs:
                if rec[1] == -1:
                    rec[1] = scratch
    return slots, nregs, nparams, labels, records, undeclared


# -- code generation ----------------------------------------------------------
class _Closure:
    """Source being generated for one closure (fused segment or unit)."""

    def __init__(self):
        self.lines: List[str] = []
        self.consts: List[object] = []
        self.needs: set = set()

    def expr(self, spec) -> str:
        kind, payload = spec
        if kind == "r":
            return f"R[{payload}]"
        if kind == "gi":
            self.needs.add("G")
            return f"G[{payload}]"
        if kind == "gn":
            self.needs.add("mem")
            return f"mem.global_addr({payload!r})"
        v = payload
        if isinstance(v, int):
            return f"({v!r})" if v < 0 else repr(v)
        if isinstance(v, float) and math.isfinite(v):
            return f"({v!r})" if v < 0 else repr(v)
        self.consts.append(v)
        return f"K{len(self.consts) - 1}"


def _emit(cl: _Closure, rec, fell_msg: Optional[str] = None) -> None:
    """Append the statements for one instruction record to *cl*."""
    code, d, specs, extra = rec
    out = cl.lines.append
    ex = cl.expr
    op = OPCODES[code]

    if op in (Opcode.ADD, Opcode.FADD):
        out(f"R[{d}] = {ex(specs[0])} + {ex(specs[1])}")
    elif op in (Opcode.SUB, Opcode.FSUB):
        out(f"R[{d}] = {ex(specs[0])} - {ex(specs[1])}")
    elif op is Opcode.FMUL:
        out(f"R[{d}] = {ex(specs[0])} * {ex(specs[1])}")
    elif op is Opcode.MOV:
        out(f"R[{d}] = {ex(specs[0])}")
    elif op is Opcode.MUL:
        out(f"r = {ex(specs[0])} * {ex(specs[1])}")
        out("if r.__class__ is int and (r > _H or r < -_H):")
        out("    r &= _M")
        out(f"R[{d}] = r")
    elif op is Opcode.LOAD:
        cl.needs.add("cells")
        out(f"a = {ex(specs[0])}")
        out("if a.__class__ is int and 8 <= a < SZ:")
        out(f"    R[{d}] = cells[a]")
        out("else:")
        out(f"    R[{d}] = mem.load(a)")
    elif op is Opcode.STORE:
        cl.needs.add("cells")
        out(f"a = {ex(specs[0])}")
        out(f"b = {ex(specs[1])}")
        out("if b.__class__ is int and 8 <= b < SZ:")
        out("    cells[b] = a")
        out("else:")
        out("    mem.store(b, a)")
    elif op in (Opcode.ICMP, Opcode.FCMP):
        sym = _CMP_SYMBOL[extra]
        out(f"R[{d}] = 1 if {ex(specs[0])} {sym} {ex(specs[1])} else 0")
    elif op is Opcode.CBR:
        ti, fi = extra
        out(f"a = {ex(specs[0])}")
        out(f"return {ti} if (a != 0 and a == a) else {fi}")
    elif op is Opcode.BR:
        out(f"return {extra}")
    elif op is Opcode.RET:
        if specs:
            out(f"return ({ex(specs[0])},)")
        else:
            out("return (None,)")
    elif op is Opcode.ALLOC:
        cl.needs.add("mem")
        out(f"R[{d}] = mem.allocate(int({ex(specs[0])}))")
    elif OPS[code] is not None:
        # every other value op: a call to its semantics-table function
        out(f"R[{d}] = _{op.value}({', '.join(ex(s) for s in specs)})")
    else:  # pragma: no cover - CALL/INTRIN never reach the generator
        raise AssertionError(f"cannot generate code for {op}")


def _assemble(name: str, cl: _Closure, acct) -> str:
    """Render one maker function.  *acct* is ``None`` or
    ``(static_count, [(code_index, count), ...])`` for a fused segment that
    owns its block-slice accounting (handle ``H`` is the maker's first
    parameter)."""
    params = []
    if acct is not None:
        params.append("H")
    params.extend(f"K{i}" for i in range(len(cl.consts)))
    lines = [f"def {name}({', '.join(params)}):", "    def _op(R, st):"]
    inner: List[str] = []
    if acct is not None:
        n, pairs = acct
        inner.append(f"steps = st.steps + {n}")
        inner.append("if steps > st.max_steps:")
        inner.append("    return st._hang(H, R)")
        inner.append("st.steps = steps")
        if pairs:
            inner.append("c = st.counts")
            for ci, k in pairs:
                inner.append(f"c[{ci}] += {k}")
    if "G" in cl.needs:
        inner.append("G = st._G")
    if "mem" in cl.needs or "cells" in cl.needs:
        inner.append("mem = st.memory")
    if "cells" in cl.needs:
        inner.append("cells = mem.cells")
        inner.append("SZ = mem.size")
    inner.extend(cl.lines)
    if not inner:
        inner.append("pass")
    lines.extend("        " + ln for ln in inner)
    lines.append("    return _op")
    return "\n".join(lines)


def _make_call(code: int, callee: str, fetch, dest: Optional[int]):
    """Runtime closure for a ``call``: own accounting (exact hang step),
    argument fetch, dispatch through the executor's compiled-module cache."""

    def _op(R, st):
        steps = st.steps + 1
        if steps > st.max_steps:
            raise HangError(steps)
        st.steps = steps
        st.counts[code] += 1
        vals = []
        ap = vals.append
        for k, p in fetch:
            if k == 0:
                ap(R[p])
            elif k == 1:
                ap(p)
            elif k == 2:
                ap(st._G[p])
            else:
                ap(st.memory.global_addr(p))
        rv = st._call(callee, vals)
        if dest is not None:
            R[dest] = rv

    return _op


def _make_intrin(code: int, name: str, fetch, dest: Optional[int]):
    """Runtime closure for an ``intrin``: dispatches to the registered
    intrinsic and charges its opcode list, exactly like the reference
    interpreter (charges bump ``steps`` but never the hang check)."""

    def _op(R, st):
        steps = st.steps + 1
        if steps > st.max_steps:
            raise HangError(steps)
        st.steps = steps
        counts = st.counts
        counts[code] += 1
        fn = st.intrinsics.get(name)
        if fn is None:
            raise CoreDumpError(f"unknown intrinsic {name!r}")
        vals = []
        ap = vals.append
        for k, p in fetch:
            if k == 0:
                ap(R[p])
            elif k == 1:
                ap(p)
            elif k == 2:
                ap(st._G[p])
            else:
                ap(st.memory.global_addr(p))
        rv, charge = fn(st, tuple(vals))
        n = len(charge)
        if n:
            cmap = _CODE
            for op in charge:
                counts[cmap[op]] += 1
            st.steps = steps + n
            st.charged += n
        if dest is not None:
            R[dest] = rv

    return _op


def _fetch_spec(specs) -> Tuple[Tuple[int, object], ...]:
    """Operand specs in the compact numeric form the factories loop over:
    0=register slot, 1=constant value, 2=global index, 3=global name."""
    out = []
    for kind, payload in specs:
        if kind == "r":
            out.append((0, payload))
        elif kind == "c":
            out.append((1, payload))
        elif kind == "gi":
            out.append((2, payload))
        else:
            out.append((3, payload))
    return tuple(out)


class CompiledFunction:
    """One function lowered to per-block closure lists."""

    __slots__ = ("name", "nregs", "nparams", "labels", "blocks",
                 "block_sizes", "undeclared", "records", "slot_of",
                 "spans", "line_instr", "_replay")

    def __init__(self, name, nregs, nparams, labels, blocks, block_sizes,
                 undeclared, records, slot_of, spans, line_instr):
        self.name = name
        self.nregs = nregs
        self.nparams = nparams
        self.labels = labels
        self.blocks = blocks            # tuple of tuples of closures
        self.block_sizes = block_sizes  # counted instructions per block
        self.undeclared = undeclared    # globals referenced but not declared
        self.records = records          # decoded records (replay, resume)
        self.slot_of = slot_of          # register name -> slot
        #: per block, per closure: (first instruction, instructions,
        #: generated?) — call/intrin closures are not generated
        self.spans = spans
        #: source line of a generated instruction -> its index in its block
        self.line_instr = line_instr
        self._replay: Dict[int, list] = {}

    def replay_units(self, bi: int) -> list:
        """Per-instruction closures for block *bi* (lazy; hang replay and
        resume)."""
        units = self._replay.get(bi)
        if units is None:
            units = _compile_units(self.name, self.labels[bi], self.records[bi])
            self._replay[bi] = units
        return units


def _compile_units(fname: str, lbl: str, recs) -> list:
    """Fuse-width-1, accounting-free closures, one per instruction.  CALL
    and INTRIN positions hold their ordinary closures, which do their own
    step accounting."""
    src_parts: List[str] = []
    makers: List[Optional[Tuple[str, list]]] = []
    for i, rec in enumerate(recs):
        if rec[0] in (_CALL, _INTRIN):
            makers.append(None)
            continue
        cl = _Closure()
        _emit(cl, rec)
        name = f"_u{i}"
        src_parts.append(_assemble(name, cl, None))
        makers.append((name, cl.consts))
    env = dict(_BASE_ENV)
    if src_parts:
        code = compile("\n".join(src_parts),
                       f"<repro-replay:@{fname}:{lbl}>", "exec")
        exec(code, env)
    units = []
    for rec, mk in zip(recs, makers):
        if mk is None:
            units.append((rec[0], _call_closure(rec)))
        else:
            name, consts = mk
            units.append((rec[0], env[name](*consts)))
    return units


def _call_closure(rec):
    """The self-accounting closure of a CALL or INTRIN record."""
    make = _make_call if rec[0] == _CALL else _make_intrin
    return make(rec[0], rec[3], _fetch_spec(rec[2]), rec[1])


def _compile_function(cm: "CompiledModule", func: Function) -> CompiledFunction:
    slot_of, nregs, nparams, labels, records, undeclared = _decode_function(
        func, cm.gindex
    )
    src_parts: List[str] = []
    #: per block: list of ("mk", name, args) | ("obj", closure)
    pending_blocks: List[list] = []
    spans: List[tuple] = []
    line_instr: Dict[int, int] = {}
    handles: List[list] = []
    serial = 0
    lineno = 1  # first line of the next source part

    def add_part(name, cl, acct, owners) -> None:
        nonlocal lineno
        src_parts.append(_assemble(name, cl, acct))
        lineno += src_parts[-1].count("\n") + 1
        # the instruction lines end the inner function, before ``return _op``
        first = lineno - 1 - len(cl.lines)
        line_instr.update((first + k, i) for k, i in enumerate(owners))

    for bi, (lbl, recs) in enumerate(zip(labels, records)):
        pending: list = []
        bspans: list = []
        terminated = bool(recs) and recs[-1][0] in _TERMINATORS

        # split into fused generated segments and call/intrin closures
        i = 0
        n = len(recs)
        while i < n:
            rec = recs[i]
            if rec[0] in (_CALL, _INTRIN):
                pending.append(("obj", _call_closure(rec)))
                bspans.append((i, 1, False))
                i += 1
                continue
            start = i
            cl = _Closure()
            owners: List[int] = []
            count_pairs: Dict[int, int] = {}
            while i < n and recs[i][0] not in (_CALL, _INTRIN):
                _emit(cl, recs[i])
                owners.extend([i] * (len(cl.lines) - len(owners)))
                count_pairs[recs[i][0]] = count_pairs.get(recs[i][0], 0) + 1
                i += 1
            seg = i - start
            handle = [None, bi, start, seg]
            handles.append(handle)
            name = f"_mk{serial}"
            serial += 1
            add_part(name, cl, (seg, sorted(count_pairs.items())), owners)
            pending.append(("mk", name, [handle] + cl.consts))
            bspans.append((start, seg, True))

        if not terminated:
            # mirror the reference interpreter's fell-through trap; also the
            # sole closure of an empty block
            msg = (f"block {lbl} of @{func.name} fell through "
                   f"without terminator")
            cl = _Closure()
            cl.lines.append(f"raise CoreDumpError({msg!r})")
            name = f"_mk{serial}"
            serial += 1
            add_part(name, cl, None, ())
            pending.append(("mk", name, []))
            bspans.append((n, 0, True))
        pending_blocks.append(pending)
        spans.append(tuple(bspans))

    env = dict(_BASE_ENV)
    if src_parts:
        code = compile("\n".join(src_parts),
                       f"<repro-compiled:@{func.name}>", "exec")
        exec(code, env)

    blocks = tuple(
        tuple(
            item[1] if item[0] == "obj" else env[item[1]](*item[2])
            for item in pending
        )
        for pending in pending_blocks
    )
    block_sizes = tuple(len(recs) for recs in records)
    cf = CompiledFunction(func.name, nregs, nparams, tuple(labels), blocks,
                          block_sizes, tuple(undeclared), records, slot_of,
                          tuple(spans), line_instr)
    for handle in handles:
        handle[0] = cf
    return cf


# -- the compiled module and its cache ----------------------------------------
class CompiledModule:
    """Threaded-code form of a module; functions compile lazily on first
    call, mirroring the reference interpreter's per-function decode."""

    def __init__(self, module: Module, fingerprint: str):
        self.module = module
        self.fingerprint = fingerprint
        self.global_names = list(module.globals)
        self.gindex = {n: i for i, n in enumerate(self.global_names)}
        self._functions: Dict[str, Optional[CompiledFunction]] = {}
        #: (function, region funcs, region blocks) -> region steps per block
        self._overlays: Dict[tuple, tuple] = {}
        # compiled modules are shared across serve executor threads; the
        # lazy per-function compile must publish exactly one closure set
        self._compile_lock = threading.Lock()

    def function(self, name: str) -> Optional[CompiledFunction]:
        cf = self._functions.get(name)
        if cf is None and name not in self._functions:
            with self._compile_lock:
                if name not in self._functions:
                    func = self.module.functions.get(name)
                    self._functions[name] = (
                        _compile_function(self, func)
                        if func is not None else None
                    )
            cf = self._functions[name]
        return cf

    def overlay(self, cf: CompiledFunction, region) -> tuple:
        """The region steps each block of *cf* adds under *region* (its
        size, or 0 outside the region), built once per region."""
        key = (cf.name, region.funcs, region.blocks)
        ov = self._overlays.get(key)
        if ov is None:
            contains = region.contains
            ov = self._overlays[key] = tuple([
                n if contains(cf.name, lbl) else 0
                for lbl, n in zip(cf.labels, cf.block_sizes)
            ])
        return ov


def module_fingerprint(module: Module) -> str:
    """sha256 of the printed module text — the compile-cache key."""
    return hashlib.sha256(format_module(module).encode("utf-8")).hexdigest()


_CACHE_CAP = 32
_COMPILE_CACHE: "OrderedDict[str, CompiledModule]" = OrderedDict()
#: LRU reorder + eviction are multi-step OrderedDict mutations; the serve
#: daemon's executor threads compile concurrently, so they must serialize.
_COMPILE_CACHE_LOCK = threading.Lock()


def compile_module(module: Module) -> CompiledModule:
    """The (cached) compiled form of *module*.

    Keyed by :func:`module_fingerprint`, so two textually identical modules
    share one compiled program and an in-place transform naturally misses
    the stale entry.  The cache is per process; campaign pool workers each
    hold their own, next to their prepared-program caches.
    """
    fp = module_fingerprint(module)
    with _COMPILE_CACHE_LOCK:
        cm = _COMPILE_CACHE.get(fp)
        if cm is None:
            cm = CompiledModule(module, fp)
            _COMPILE_CACHE[fp] = cm
            while len(_COMPILE_CACHE) > _CACHE_CAP:
                _COMPILE_CACHE.popitem(last=False)
        else:
            _COMPILE_CACHE.move_to_end(fp)
    return cm


def clear_compile_cache() -> None:
    with _COMPILE_CACHE_LOCK:
        _COMPILE_CACHE.clear()


# -- the executor -------------------------------------------------------------
class CompiledExecutor:
    """Clean-mode drop-in for :class:`Interpreter`.

    Exposes the same running state (``steps``, ``counts``, ``region_steps``,
    ``intrinsics``, ``memory``) and the same ``run``/``register_intrinsic``
    surface; ``run(..., state=...)`` continues a paused execution with
    no fault state pending.  ``fault_region`` is supported (bulk per-block
    accounting) so golden campaign runs can measure their injection
    window; fault *plans*, timing and profiling are not — those runs
    belong to the reference interpreter (see :mod:`repro.runtime.backend`).
    *compiled* passes in a :func:`compile_module` result looked up once.
    """

    def __init__(
        self,
        module: Module,
        memory: Optional[Memory] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        fault_region=None,
        compiled: Optional[CompiledModule] = None,
    ):
        self.module = module
        self.memory = memory if memory is not None else Memory()
        if not self.memory.globals and module.globals:
            self.memory.load_globals(module)
        self.max_steps = max_steps
        self.steps = 0
        self.counts: List[int] = [0] * len(OPCODES)
        self.intrinsics: Dict[str, IntrinsicFn] = {}
        self.timing = None
        self.fault_plan = None
        self.fault_region = fault_region
        self.region_steps = 0
        #: dynamic steps charged by intrinsics (they never enter
        #: ``region_steps``, matching the reference accounting)
        self.charged = 0
        self._cm = compiled if compiled is not None else compile_module(module)
        self._G: Optional[List[int]] = None
        self._depth = 0
        self._overlays: Dict[str, tuple] = {}
        self._resolved: set = set()

    # -- public API -----------------------------------------------------------
    def register_intrinsic(self, name: str, fn: IntrinsicFn) -> None:
        self.intrinsics[name] = fn

    def register_intrinsics(self, table: Dict[str, IntrinsicFn]) -> None:
        self.intrinsics.update(table)

    def count_dict(self) -> Dict[Opcode, int]:
        return {op: self.counts[i] for i, op in enumerate(OPCODES) if self.counts[i]}

    def run(self, func_name: str, args: Sequence = (),
            state: Optional[MachineState] = None) -> RunResult:
        """Run *func_name* on *args* — or continue a paused *state* with
        no fault state pending to its end instead.

        A resumed run re-enters the innermost frame at its (label, index)
        and runs the rest of that block per instruction
        (:meth:`CompiledFunction.replay_units`), then whole fused blocks.
        When the frame returns, its value goes into the caller's ``call``
        dest and the caller continues the same way, outward to the first
        frame."""
        func = self.module.get_function(func_name)
        if state is None:
            if len(args) != len(func.params):
                raise TypeError(
                    f"@{func_name} expects {len(func.params)} arguments, "
                    f"got {len(args)}")
            body, body_args = self._call, (func_name, list(args))
        else:
            assert not state.pending, "faulted resumes belong to the reference"
            self.memory = state.memory
            self.steps = state.steps
            self.region_steps = state.region_steps
            body, body_args = self._resume_frames, (state.frames,)
        # the compiled backend only ever serves clean runs, so (unlike the
        # reference interpreter) every run may carry a timing span
        if obs_enabled():
            with obs_span(f"compiled.run:@{func_name}"):
                value = self._exact(body, *body_args)
        else:
            value = self._exact(body, *body_args)
        return RunResult(value, self.steps, self.count_dict(),
                         region_steps=self.region_steps)

    # -- internal -------------------------------------------------------------
    def _exact(self, body, *args):
        """``body(*args)`` with the reference's counters on every exit.
        Without a fault region every architectural step is in region —
        never an intrinsic charge, nor the step that hung."""
        self._G = [self.memory.global_addr(n) for n in self._cm.global_names]
        steps0, region0 = self.steps, self.region_steps
        self.charged = 0
        hung = False
        try:
            return body(*args)
        except HangError:
            hung = True
            raise
        finally:
            self._depth = 0
            if self.fault_region is None:
                self.region_steps = (region0 + self.steps - steps0
                                     - self.charged - hung)

    def _resume_frames(self, frames) -> object:
        value = None
        for depth in range(len(frames) - 1, -1, -1):
            fname, label, index, regs = frames[depth]
            cf = self._cm.function(fname)
            R = [None] * cf.nregs
            for name, v in regs.items():
                R[cf.slot_of[name]] = v
            bi = cf.labels.index(label)
            recs = cf.records[bi]
            if depth < len(frames) - 1:
                dest = recs[index - 1][1]  # the pending call's
                if dest is not None:
                    R[dest] = value
            self._depth = depth + 1
            r = self._run_units(cf, bi, index, len(recs), R)
            if not recs or recs[-1][0] not in _TERMINATORS:
                raise CoreDumpError(
                    f"block {label} of @{fname} fell through without terminator")
            self._depth = depth
            value = r[0] if r.__class__ is tuple else self._invoke(cf, R, r)
        return value

    def _call(self, name: str, vals: list):
        cf = self._cm.function(name)
        if cf is None:
            raise CoreDumpError(f"call to unknown function @{name}")
        R = [None] * cf.nregs
        np = cf.nparams
        if np:
            R[:np] = vals
        return self._invoke(cf, R, 0)

    def _invoke(self, cf: CompiledFunction, R: list, bi: int):
        """Run *cf* on register file *R* from block *bi* to its return."""
        depth = self._depth
        if depth > MAX_CALL_DEPTH:
            raise CoreDumpError(f"call depth exceeded in @{cf.name}")
        self._depth = depth + 1
        try:
            if cf.undeclared and cf.name not in self._resolved:
                # the reference interpreter resolves global operands at
                # decode time; fault identically before executing anything
                for name in cf.undeclared:
                    self.memory.global_addr(name)
                self._resolved.add(cf.name)
            blocks = cf.blocks
            overlay = None
            try:
                if self.fault_region is None:
                    while True:
                        for op in blocks[bi]:
                            r = op(R, self)
                        if r.__class__ is int:
                            bi = r
                        else:
                            return r[0]
                overlay = self._overlay(cf)
                while True:
                    for op in blocks[bi]:
                        r = op(R, self)
                    self.region_steps += overlay[bi]
                    if r.__class__ is int:
                        bi = r
                    else:
                        return r[0]
            except TRIAL_TRAPS as exc:
                self._settle(cf, bi, op, exc, overlay)
                raise
        finally:
            self._depth = depth

    def _settle(self, cf: CompiledFunction, bi: int, op, exc, overlay) -> None:
        """Make ``steps``/``region_steps`` exact after closure *op* of
        block *bi* raised.  A fused segment commits all its steps up
        front, and a block's region steps are added after it; the
        trapping instruction comes from the line the segment's frame
        stopped at, never from a re-run (it may have overwritten its own
        operands)."""
        if isinstance(exc, HangError):
            self.steps = exc.steps  # hang checks raise before committing
        start, count, generated = cf.spans[bi][cf.blocks[bi].index(op)]
        tb = exc.__traceback__
        while tb.tb_frame.f_code is not op.__code__:
            tb = tb.tb_next
        at = cf.line_instr.get(tb.tb_lineno) if generated else None
        if at is not None:
            self.steps -= start + count - 1 - at
            done = at + 1
        elif generated or (isinstance(exc, HangError) and tb.tb_next is None):
            # the hang replay counted this segment itself, the block fell
            # through after its last instruction, or a call/intrin's own
            # hang check fired (no region step for it)
            done = start
        else:
            done = start + 1
        if overlay is not None and overlay[bi]:
            self.region_steps += done

    def _overlay(self, cf: CompiledFunction) -> tuple:
        # every call looks its overlay up: by name here, because calling
        # the module's region-keyed lookup per call cost ~10% of perfbench
        # campaign-batch trials/s
        ov = self._overlays.get(cf.name)
        if ov is None:
            ov = self._overlays[cf.name] = self._cm.overlay(cf, self.fault_region)
        return ov

    def _hang(self, handle, R):
        """Replay a fused segment that would cross ``max_steps`` with
        exact reference accounting: the hang — or any trap the reference
        interpreter would hit first — surfaces at the precise step."""
        cf, bi, start, count = handle
        self._run_units(cf, bi, start, start + count, R)
        raise AssertionError("hang replay completed without trapping")  # pragma: no cover

    def _run_units(self, cf: CompiledFunction, bi: int, start: int, stop: int,
                   R: list):
        """Execute instructions [start, stop) of block *bi* one at a time
        with the reference accounting; returns the last one's result."""
        units = cf.replay_units(bi)
        region = self.fault_region
        in_region = region is not None and region.contains(
            cf.name, cf.labels[bi]
        )
        max_steps = self.max_steps
        counts = self.counts
        r = None
        for code, unit in units[start:stop]:
            steps = self.steps + 1
            if steps > max_steps:
                self.steps = steps
                raise HangError(steps)
            if code != _CALL and code != _INTRIN:  # those count themselves
                self.steps = steps
                counts[code] += 1
            if in_region:
                self.region_steps += 1
            r = unit(R, self)
        return r
