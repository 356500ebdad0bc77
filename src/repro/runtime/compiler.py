"""Closure-compiling execution backend.

Lowers each function once into *threaded code*: every basic block becomes
a list of specialized Python closures over a slot-indexed register file
(a plain list — register names are resolved to integer slots at compile
time, so the hot loop never touches a dict).  Operand fetch is specialized
per operand (constant folded into the generated source, register slot
index baked in, global address resolved through a per-run table), and
comparison predicates are baked into the generated expression.  Runs of
straight-line instructions are fused into a single *superinstruction*
closure that commits ``steps`` in bulk.  Each outermost natural loop
with no ``call``/``intrin`` in any of its blocks, nested loops included,
compiles into one *loop closure*: a ``while`` loop over its blocks with
a local step counter and local block-hit counters, which returns the
block the loop exits to.

Per-opcode counts are not kept on the hot path.  The executor counts
block *hits* (one per block entry; a loop closure counts its own), and
at the end of a run folds them into the per-opcode ``counts`` through
each block's static opcode histogram — and, under a fault region, into
``region_steps`` through each block's region size.

The backend serves **clean mode only** — no fault plan, no timing model,
no capture hook.  Instrumented runs stay on the reference
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
  commits per fused segment (per block, in a loop closure) *before*
  executing it; one that would cross ``max_steps`` is re-executed
  instruction-by-instruction with reference accounting, so the hang —
  or any trap that precedes it — surfaces exactly where the reference
  interpreter raises it.  A trap inside generated code is mapped from
  the line it raised at back to its instruction (a loop closure's
  block, step counter and hit counters are read from its frame's
  locals), and the counters are corrected to that point;
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
from collections import Counter, OrderedDict
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.loops import find_loops
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
    IntrinsicFn,
    MachineState,
    RunResult,
    check_arity,
)
from .memory import Memory
from .semantics import CODE as _CODE, HUGE_INT, INT_MASK64, OPCODES, OPS, PRED as _PRED

_CALL = _CODE[Opcode.CALL]
_INTRIN = _CODE[Opcode.INTRIN]
_BR = _CODE[Opcode.BR]
_CBR = _CODE[Opcode.CBR]
_ICMP = _CODE[Opcode.ICMP]
_FCMP = _CODE[Opcode.FCMP]
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
            code = check_arity(func.name, lbl, instr)
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
    """Source being generated for one closure (fused segment, unit or
    loop): its statements with, per line, the index of the instruction
    it belongs to in its block (``None`` for control lines)."""

    def __init__(self):
        self.lines: List[str] = []
        self.owners: List[Optional[int]] = []
        self.consts: List[object] = []
        self.needs: set = set()
        self.pad = ""      # indentation of the next statements
        self.owner: Optional[int] = None

    def add(self, line: str) -> None:
        self.lines.append(self.pad + line)
        self.owners.append(self.owner)

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


def _emit(cl: _Closure, rec) -> None:
    """Append the statements for one instruction record to *cl*: a value
    op, memory op or ``ret`` (:func:`_segment` renders ``br``/``cbr``,
    :func:`_emit_call` a ``call``/``intrin``)."""
    code, d, specs, extra = rec
    out = cl.add
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
        # the slow path re-reads the fast-path view: a lane memory may
        # have flattened or grown its prefix (a loop closure lives on)
        cl.needs.add("cells")
        out(f"a = {ex(specs[0])}")
        out("if a.__class__ is int and 8 <= a < SZ:")
        out(f"    R[{d}] = cells[a]")
        out("else:")
        out(f"    R[{d}] = mem.load(a)")
        out("    cells = mem.cells")
        out("    SZ = mem.size")
    elif op is Opcode.STORE:
        cl.needs.add("cells")
        out(f"a = {ex(specs[0])}")
        out(f"b = {ex(specs[1])}")
        out("if b.__class__ is int and 8 <= b < SZ:")
        out("    cells[b] = a")
        out("else:")
        out("    mem.store(b, a)")
        out("    cells = mem.cells")
        out("    SZ = mem.size")
    elif op in (Opcode.ICMP, Opcode.FCMP):
        sym = _CMP_SYMBOL[extra]
        out(f"R[{d}] = 1 if {ex(specs[0])} {sym} {ex(specs[1])} else 0")
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
    else:  # pragma: no cover - branches and calls have their own emitters
        raise AssertionError(f"cannot generate code for {op}")


def _assemble(name: str, cl: _Closure, handles: Sequence[str] = (),
              sig: str = "R, st", prologue: Sequence[str] = ()):
    """Render one maker function: its parameters are *handles* (segment
    handles for the hang replay), then the closure's constants; the
    closure it returns takes *sig* and starts with *prologue*.  Returns
    ``(source, owners)`` with one owner entry per source line."""
    params = list(handles) + [f"K{i}" for i in range(len(cl.consts))]
    head = [f"def {name}({', '.join(params)}):", f"    def _op({sig}):"]
    body = list(prologue)
    if "G" in cl.needs:
        body.append("G = st._G")
    if "mem" in cl.needs or "cells" in cl.needs:
        body.append("mem = st.memory")
    if "cells" in cl.needs:
        body.append("cells = mem.cells")
        body.append("SZ = mem.size")
    owners = [None] * (len(head) + len(body)) + cl.owners
    body.extend(cl.lines)
    if not body:
        body.append("pass")
        owners.append(None)
    lines = head + ["        " + ln for ln in body] + ["    return _op"]
    owners.append(None)
    return "\n".join(lines), owners


def _segment(cl: _Closure, recs, start: int, stop: int, edge=None) -> None:
    """Emit records [start, stop) of one block (no call or intrin).  A
    ``br``/``cbr`` ending them jumps through *edge(to)* (by default a
    ``return`` of block *to*); a ``cbr`` on the flag an ``icmp``/``fcmp``
    just set tests the comparison itself."""
    if edge is None:
        def edge(to: int) -> None:
            cl.add(f"return {to}")
    code = recs[stop - 1][0] if stop > start else None
    body = stop - 1 if code in (_BR, _CBR) else stop
    cond = recs[body][2][0] if code == _CBR else None
    fused = (body > start and recs[body - 1][0] in (_ICMP, _FCMP)
             and cond == ("r", recs[body - 1][1]))
    for i in range(start, body - fused):
        cl.owner = i
        _emit(cl, recs[i])
    if code == _BR:
        cl.owner = None
        edge(recs[body][3])
    elif code == _CBR:
        if fused:
            _, d, (x, y), pred = recs[body - 1]
            cl.owner = body - 1
            cl.add(f"if {cl.expr(x)} {_CMP_SYMBOL[pred]} {cl.expr(y)}:")
            sets = ((f"R[{d}] = 1",), (f"R[{d}] = 0",))
        else:
            cl.owner = body
            cl.add(f"a = {cl.expr(cond)}")
            cl.add("if a != 0 and a == a:")
            sets = ((), ())
        cl.owner = None
        pad = cl.pad
        for k, to in enumerate(recs[body][3]):
            if k:
                cl.add("else:")
            cl.pad = pad + "    "
            for line in sets[k]:
                cl.add(line)
            edge(to)
            cl.pad = pad
    cl.owner = None


def _loop_closure(cl: _Closure, fname: str, members: Sequence[int],
                  records) -> Tuple[List[str], List[str]]:
    """Emit one call-free loop nest as a single closure ``_op(R, st, blk)``.

    It runs the *members* blocks (in dispatch order) in one ``while`` loop
    from block ``blk`` on: a local step counter ``s`` (committed before
    each block, hang-checked against ``lim``) and local block-hit
    counters ``h<k>``, bumped on each edge into block ``k`` inside the
    loop (``_invoke`` counts the entry).  A block that would cross
    ``max_steps`` is replayed by ``st._hang`` with its handle ``J<k>``.
    An edge out of the loop commits both counters and returns its
    target.  Returns ``(handles, prologue)`` for :func:`_assemble`."""
    pos = {b: i for i, b in enumerate(members)}

    def edge(here: int, to: int) -> None:
        if to in pos:
            cl.add(f"blk = {to}")
            cl.add(f"h{to} += 1")
            if pos[to] <= pos[here]:
                cl.add("continue")
        else:
            cl.add(f"nxt = {to}")
            cl.add("break")

    cl.add("while True:")
    for b in members:
        recs = records[b]
        n = len(recs)
        cl.pad = "    "
        cl.add(f"if blk == {b}:")
        cl.pad = "        "
        cl.add(f"s += {n}")
        cl.add("if s > lim:")
        cl.add(f"    st.steps = s - {n}")
        cl.add(f"    return st._hang(J{b}, R)")
        _segment(cl, recs, 0, n, partial(edge, b))
    cl.pad = ""
    cl.add("st.steps = s")
    cl.add(f"HT = st._hits[{fname!r}]")
    for b in members:
        cl.add(f"HT[{b}] += h{b}")
    cl.add("return nxt")
    prologue = ["s = st.steps", "lim = st.max_steps",
                " = ".join(f"h{b}" for b in members) + " = 0"]
    return [f"J{b}" for b in members], prologue


def _emit_call(cl: _Closure, rec) -> None:
    """The statements of a ``call``/``intrin`` closure.  It does its own
    accounting (the exact hang step), fetches its arguments, then calls
    through the executor's compiled module — or the registered intrinsic,
    whose charged opcodes bump ``steps`` but never the hang check,
    exactly like the reference interpreter."""
    code, d, specs, name = rec
    out = cl.add
    out("steps = st.steps + 1")
    out("if steps > st.max_steps:")
    out("    raise HangError(steps)")
    out("st.steps = steps")
    out(f"st.counts[{code}] += 1")
    args = [cl.expr(spec) for spec in specs]
    if code == _CALL:
        call = f"st._call({name!r}, [{', '.join(args)}])"
        out(call if d is None else f"R[{d}] = {call}")
        return
    missing = f"unknown intrinsic {name!r}"
    out(f"fn = st.intrinsics.get({name!r})")
    out("if fn is None:")
    out(f"    raise CoreDumpError({missing!r})")
    out(f"rv, charge = fn(st, ({''.join(a + ', ' for a in args)}))")
    out("n = len(charge)")
    out("if n:")
    out("    counts = st.counts")
    out("    for op in charge:")
    out("        counts[op.code] += 1")
    out("    st.steps = steps + n")
    out("    st.charged += n")
    if d is not None:
        out(f"R[{d}] = rv")


class CompiledFunction:
    """One function lowered to per-block closure lists."""

    __slots__ = ("name", "nregs", "nparams", "labels", "blocks",
                 "block_sizes", "undeclared", "records", "slot_of",
                 "spans", "line_instr", "loops", "hist", "_replay")

    def __init__(self, name, nregs, nparams, labels, blocks, block_sizes,
                 undeclared, records, slot_of, spans, line_instr, loops,
                 hist):
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
        #: per block: the member blocks of the loop closure it runs in
        #: (in its dispatch order, innermost loop first), or ``None``
        self.loops = loops
        #: per block: ``(code, count)`` of its generated instructions —
        #: one block hit adds these to the per-opcode counts
        self.hist = hist
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
    consts: List[list] = []
    for i, rec in enumerate(recs):
        cl = _Closure()
        if rec[0] in (_CALL, _INTRIN):
            _emit_call(cl, rec)
        else:
            _segment(cl, recs, i, i + 1)
        src_parts.append(_assemble(f"_u{i}", cl)[0])
        consts.append(cl.consts)
    env = dict(_BASE_ENV)
    if src_parts:
        code = compile("\n".join(src_parts),
                       f"<repro-replay:@{fname}:{lbl}>", "exec")
        exec(code, env)
    return [(rec[0], env[f"_u{i}"](*consts[i]))
            for i, rec in enumerate(recs)]


def _loop_nests(func: Function, labels,
                records) -> List[Tuple[int, Tuple[int, ...]]]:
    """The outermost natural loops of *func* that a loop closure can run:
    every block, those of nested loops included, ends in ``br``/``cbr``
    and holds no ``call``/``intrin``.  Each as its header and its block
    indices, the most deeply nested first and then in block order (a
    back edge re-enters the closure's block dispatch at its top, so the
    innermost loop's blocks are found first); no block in two."""
    if not labels:
        return []
    index = {lbl: i for i, lbl in enumerate(labels)}
    nests: List[Tuple[int, Tuple[int, ...]]] = []
    taken: set = set()
    for loop in find_loops(func):  # outermost first
        members = [index[lbl] for lbl in loop.blocks]
        if taken.intersection(members) or not all(
                records[b] and records[b][-1][0] in (_BR, _CBR)
                and not any(r[0] in (_CALL, _INTRIN) for r in records[b])
                for b in members):
            continue
        depth = dict.fromkeys(members, 0)
        pending = [loop]
        while pending:
            inner = pending.pop()
            pending.extend(inner.children)
            for lbl in inner.blocks:
                depth[index[lbl]] += 1
        nests.append((index[loop.header],
                      tuple(sorted(members, key=lambda b: (-depth[b], b)))))
        taken.update(members)
    return nests


def _compile_function(cm: "CompiledModule", func: Function) -> CompiledFunction:
    slot_of, nregs, nparams, labels, records, undeclared = _decode_function(
        func, cm.gindex
    )
    nests = _loop_nests(func, labels, records)
    loop_of: List[Optional[Tuple[int, ...]]] = [None] * len(labels)
    head_of: Dict[int, int] = {}
    for head, members in nests:
        for b in members:
            loop_of[b] = members
            head_of[b] = head
    src_parts: List[str] = []
    #: per block: its closures' (maker name, maker args), or its loop's
    #: header
    pending_blocks: List[object] = []
    spans: List[tuple] = []
    line_instr: Dict[int, int] = {}
    handles: List[list] = []
    serial = 0
    lineno = 1  # first line of the next source part

    def add_part(cl, handle_names=(), sig="R, st", prologue=()) -> str:
        nonlocal lineno, serial
        name = f"_mk{serial}"
        serial += 1
        src, owners = _assemble(name, cl, handle_names, sig, prologue)
        src_parts.append(src)
        line_instr.update((lineno + k, i) for k, i in enumerate(owners)
                          if i is not None)
        lineno += len(owners)
        return name

    loop_makers: Dict[int, tuple] = {}
    for head, members in nests:
        cl = _Closure()
        names, prologue = _loop_closure(cl, func.name, members, records)
        hs = [[None, b, 0, len(records[b])] for b in members]
        handles.extend(hs)
        name = add_part(cl, names, f"R, st, blk={head}", prologue)
        loop_makers[head] = (name, hs + cl.consts)

    for bi, (lbl, recs) in enumerate(zip(labels, records)):
        if loop_of[bi] is not None:
            pending_blocks.append(head_of[bi])
            spans.append(((0, len(recs), True),))
            continue
        pending: list = []
        bspans: list = []
        terminated = bool(recs) and recs[-1][0] in _TERMINATORS

        # split into fused generated segments and call/intrin closures
        i = 0
        n = len(recs)
        while i < n:
            rec = recs[i]
            if rec[0] in (_CALL, _INTRIN):
                cl = _Closure()
                _emit_call(cl, rec)
                pending.append((add_part(cl), cl.consts))
                bspans.append((i, 1, False))
                i += 1
                continue
            start = i
            while i < n and recs[i][0] not in (_CALL, _INTRIN):
                i += 1
            seg = i - start
            cl = _Closure()
            _segment(cl, recs, start, i)
            handle = [None, bi, start, seg]
            handles.append(handle)
            prologue = (f"steps = st.steps + {seg}",
                        "if steps > st.max_steps:",
                        "    return st._hang(H, R)",
                        "st.steps = steps")
            name = add_part(cl, ("H",), prologue=prologue)
            pending.append((name, [handle] + cl.consts))
            bspans.append((start, seg, True))

        if not terminated:
            # mirror the reference interpreter's fell-through trap; also the
            # sole closure of an empty block
            msg = (f"block {lbl} of @{func.name} fell through "
                   f"without terminator")
            cl = _Closure()
            cl.add(f"raise CoreDumpError({msg!r})")
            pending.append((add_part(cl), []))
            bspans.append((n, 0, True))
        pending_blocks.append(pending)
        spans.append(tuple(bspans))

    env = dict(_BASE_ENV)
    if src_parts:
        code = compile("\n".join(src_parts),
                       f"<repro-compiled:@{func.name}>", "exec")
        exec(code, env)

    runs = {head: env[name](*args)
            for head, (name, args) in loop_makers.items()}
    blocks = tuple(
        (runs[p] if p == bi else partial(runs[p], blk=bi),)
        if isinstance(p, int) else tuple(env[name](*args) for name, args in p)
        for bi, p in enumerate(pending_blocks)
    )
    block_sizes = tuple(len(recs) for recs in records)
    hist = tuple(
        tuple(sorted(Counter(rec[0] for rec in recs
                             if rec[0] not in (_CALL, _INTRIN)).items()))
        for recs in records
    )
    cf = CompiledFunction(func.name, nregs, nparams, tuple(labels), blocks,
                          block_sizes, tuple(undeclared), records, slot_of,
                          tuple(spans), line_instr, tuple(loop_of), hist)
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
    ``intrinsics``, ``memory``) and the same ``run``/``register_intrinsics``
    surface — ``counts`` and, under a fault region, ``region_steps`` are
    exact once a run has ended (its block hits fold in then);
    ``run(..., state=...)`` continues a paused execution with no fault
    state pending.  ``fault_region`` is supported (per-block region
    sizes) so clean runs can measure their injection window; fault
    *plans* and timing are not — those runs
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
        #: per function name: entries of each block since the last fold
        #: into ``counts`` (and ``region_steps``) at the end of a run
        self._hits: Dict[str, List[int]] = {}

    # -- public API -----------------------------------------------------------
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
        (:meth:`CompiledFunction.replay_units`), then whole blocks (a
        loop closure entered at the block the frame reached).
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
            assert state.trigger is None, "faulted resumes belong to the reference"
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
        never an intrinsic charge, nor the step that hung.  The run's
        block hits fold into the per-opcode counts (and, with a fault
        region, its region steps) at the end."""
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
            self._fold()
            if self.fault_region is None:
                self.region_steps = (region0 + self.steps - steps0
                                     - self.charged - hung)

    def _fold(self) -> None:
        """Add each block's hits times its opcode histogram to ``counts``
        and, under a fault region, times its region size to
        ``region_steps``; then start the hit counters over."""
        counts = self.counts
        region = 0
        for name, hits in self._hits.items():
            cf = self._cm.function(name)
            hist = cf.hist
            overlay = (self._overlay(cf) if self.fault_region is not None
                       else None)
            for bi, n in enumerate(hits):
                if n:
                    for code, k in hist[bi]:
                        counts[code] += n * k
                    if overlay is not None:
                        region += n * overlay[bi]
        self._hits = {}
        self.region_steps += region

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
            hits = self._hits.get(cf.name)
            if hits is None:
                hits = self._hits[cf.name] = [0] * len(blocks)
            try:
                while True:
                    hits[bi] += 1
                    for op in blocks[bi]:
                        r = op(R, self)
                    if r.__class__ is int:
                        bi = r
                    else:
                        return r[0]
            except TRIAL_TRAPS as exc:
                self._settle(cf, bi, op, exc)
                raise
        finally:
            self._depth = depth

    def _settle(self, cf: CompiledFunction, bi: int, op, exc) -> None:
        """Make ``steps``/``region_steps`` exact after closure *op* of
        block *bi* raised.  A fused segment commits all its steps up
        front, and the block's hit was counted on entry; the trapping
        instruction comes from the line the closure's frame stopped at,
        never from a re-run (it may have overwritten its own operands).
        A loop closure's counters and current block are its frame's
        locals."""
        tb = exc.__traceback__.tb_next  # the frame of *op*
        hits = self._hits[cf.name]
        members = cf.loops[bi]
        if members is None:
            start, count, generated = cf.spans[bi][cf.blocks[bi].index(op)]
            steps = self.steps
        else:
            local = tb.tb_frame.f_locals
            for b in members:
                hits[b] += local[f"h{b}"]
            bi, steps = local["blk"], local["s"]
            start, count, generated = cf.spans[bi][0]
        hits[bi] -= 1  # entered, not completed: its region steps follow
        if isinstance(exc, HangError):
            self.steps = exc.steps  # hang checks raise before committing
        at = cf.line_instr.get(tb.tb_lineno) if generated else None
        if at is not None:
            self.steps = steps - (start + count - 1 - at)
            done = at + 1
        elif generated or (isinstance(exc, HangError) and tb.tb_next is None):
            # the hang replay counted this segment itself, the block fell
            # through after its last instruction, or a call/intrin's own
            # hang check fired (no region step for it)
            done = start
        else:
            done = start + 1
        if self.fault_region is not None and self._overlay(cf)[bi]:
            self.region_steps += done

    def _overlay(self, cf: CompiledFunction) -> tuple:
        # by name: the module's lookup builds a region key each time
        ov = self._overlays.get(cf.name)
        if ov is None:
            ov = self._overlays[cf.name] = self._cm.overlay(cf, self.fault_region)
        return ov

    def _hang(self, handle, R):
        """Replay a fused segment (or a loop closure's block) that would
        cross ``max_steps`` with exact reference accounting: the hang —
        or any trap the reference interpreter would hit first — surfaces
        at the precise step."""
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
