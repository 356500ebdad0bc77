"""IR interpreter.

Executes a module function-by-function while maintaining the three pieces
of state every experiment needs:

* **dynamic instruction counts** per opcode (Figure 7c's metric — exact);
* an optional **timing model** (`repro.runtime.scheduler.TimingModel`) fed
  with true dataflow dependences, producing cycles and IPC (Figures 7b/7d);
* **fault-injection hooks** implementing the SEU model of
  `repro.runtime.faults` (Figure 9).

One optional pause hook, :attr:`Interpreter.capture`, sees block entries
and calls: `repro.runtime.prefix` uses it to capture a campaign's golden
run and to hand faulted trials off.

Value ops follow `repro.runtime.semantics`: the hot ops are inlined in the
dispatch chain, every other one is a call into its ``OPS`` table.

Intrinsics (``intrin`` instructions) dispatch to Python callables registered
with :meth:`Interpreter.register_intrinsics`; each returns its result plus a
list of opcodes to *charge*, so predictor bookkeeping shows up in both the
instruction counts and the cycle model (DESIGN.md: "predictor cost
charging").
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..analysis.liveness import Liveness
from ..ir.function import Function
from ..ir.instructions import Opcode
from ..ir.module import Module
from ..ir.values import Const, GlobalAddr, Reg
from ..obs.events import enabled as obs_enabled, span as obs_span
from .errors import CoreDumpError, HangError
from .faults import (CONTROL_KINDS, SKIP_KINDS, FaultPlan, Region, flip_value,
                     victim_index)
from .memory import Memory, global_addr
from .scheduler import TimingModel
from .semantics import CODE as _CODE, OPCODES, OPS as _OPS, PRED as _PRED
from .semantics import HUGE_INT as _HUGE_INT, INT_MASK64 as _INT_MASK64

# frequently used opcode indices, hoisted for the dispatch chain
_MOV = _CODE[Opcode.MOV]
_ADD = _CODE[Opcode.ADD]
_SUB = _CODE[Opcode.SUB]
_MUL = _CODE[Opcode.MUL]
_FADD = _CODE[Opcode.FADD]
_FSUB = _CODE[Opcode.FSUB]
_FMUL = _CODE[Opcode.FMUL]
_ICMP = _CODE[Opcode.ICMP]
_FCMP = _CODE[Opcode.FCMP]
_LOAD = _CODE[Opcode.LOAD]
_STORE = _CODE[Opcode.STORE]
_ALLOC = _CODE[Opcode.ALLOC]
_BR = _CODE[Opcode.BR]
_CBR = _CODE[Opcode.CBR]
_CALL = _CODE[Opcode.CALL]
_RET = _CODE[Opcode.RET]
_INTRIN = _CODE[Opcode.INTRIN]

#: Operand-count contract per opcode index, enforced at decode time.
#: ``None`` means variadic (CALL/INTRIN take any number of arguments);
#: a tuple lists the accepted counts (RET may be void).
OPERAND_ARITY: List[Optional[Tuple[int, ...]]] = [None] * len(OPCODES)
for _op, _n in {
    Opcode.MOV: 1,
    Opcode.ADD: 2, Opcode.SUB: 2, Opcode.MUL: 2,
    Opcode.SDIV: 2, Opcode.SREM: 2,
    Opcode.AND: 2, Opcode.OR: 2, Opcode.XOR: 2,
    Opcode.SHL: 2, Opcode.LSHR: 2,
    Opcode.FADD: 2, Opcode.FSUB: 2, Opcode.FMUL: 2, Opcode.FDIV: 2,
    Opcode.FNEG: 1, Opcode.FABS: 1, Opcode.SQRT: 1, Opcode.EXP: 1,
    Opcode.LOG: 1, Opcode.SIN: 1, Opcode.COS: 1, Opcode.FLOOR: 1,
    Opcode.SITOFP: 1, Opcode.FPTOSI: 1,
    Opcode.ICMP: 2, Opcode.FCMP: 2, Opcode.SELECT: 3,
    Opcode.LOAD: 1, Opcode.STORE: 2, Opcode.ALLOC: 1,
    Opcode.BR: 0, Opcode.CBR: 1,
}.items():
    OPERAND_ARITY[_CODE[_op]] = (_n,)
OPERAND_ARITY[_CODE[Opcode.RET]] = (0, 1)


def check_arity(func_name: str, label: str, instr) -> int:
    """The opcode index of *instr* (in block *label* of *func_name*),
    whose operand count must meet ``OPERAND_ARITY``: a program that
    breaks the contract core-dumps when its function is decoded."""
    code = _CODE[instr.op]
    want = OPERAND_ARITY[code]
    if want is not None and len(instr.args) not in want:
        raise CoreDumpError(
            f"@{func_name}:{label}: {instr.op.value} expects "
            f"{' or '.join(map(str, want))} operand(s), got {len(instr.args)}"
        )
    return code


DEFAULT_MAX_STEPS = 200_000_000
#: capture threshold of a run with no capture hook: no region step reaches it
_NEVER = 1 << 62
MAX_CALL_DEPTH = 64

#: Intrinsic signature: (interp, args) -> (result, charge_opcodes)
IntrinsicFn = Callable[["Interpreter", Tuple], Tuple[object, Sequence[Opcode]]]


@dataclass
class RunResult:
    """Everything a single program execution produced."""

    value: object
    steps: int
    counts: Dict[Opcode, int]
    cycles: int = 0
    ipc: float = 0.0
    region_steps: int = 0
    extras: Dict[str, object] = field(default_factory=dict)


class ResumeFrame(NamedTuple):
    """One activation of a paused execution: its function, the block and
    index of the next instruction to execute (in a caller, the one after
    its pending ``call``) and the registers written so far, by name."""

    func: str
    label: str
    index: int
    regs: Dict[str, object]


@dataclass
class MachineState:
    """A paused execution, continued by ``run(..., state=...)`` on either
    :class:`Interpreter` or
    :class:`~repro.runtime.compiler.CompiledExecutor`: the frame stack
    (outermost first), the memory it runs on, both step counters, and
    the plan step whose trigger has not fired (``None`` once fired, and
    then the rest of the execution is a clean run).  That is the only
    fault state a pause can leave still to act: batch lanes carry value
    flips alone, and a hand-off waits until the interpreter's fault has
    fully acted."""

    frames: List[ResumeFrame]
    memory: object
    steps: int
    region_steps: int
    trigger: Optional[int] = None


class DecodedProgram:
    """Decoded instructions of one module under one fault region and one
    global layout (global operands are decoded to their addresses),
    built lazily per function, their slot-indexed view for the batch
    engine, and the registers live where a paused frame resumes.  Every
    :class:`Interpreter` and
    :class:`~repro.runtime.batch.BatchExecutor` constructed with
    ``decoded=`` shares it, so a campaign decodes its program and
    analyses its liveness once rather than once per trial or slab."""

    def __init__(self, module: Module, region: Optional[Region], memory: Memory):
        self.module = module
        self.region = region
        self.layout = dict(memory.globals)
        #: function name -> (entry label, label -> decoded instructions)
        self.funcs: Dict[str, Tuple[str, Dict[str, list]]] = {}
        #: function name -> (layout-successor map, block order), used by
        #: the skip fall-through and cf retarget machinery
        self.succ: Dict[str, Tuple[Dict[str, Optional[str]], Tuple[str, ...]]] = {}
        #: function name -> :meth:`slotted` view
        self._slotted: Dict[str, tuple] = {}
        self._liveness: Dict[str, Liveness] = {}
        #: (function, label, index) -> live registers there, and those
        #: of an outer frame resuming there (without its call's dest)
        self._live: Dict[Tuple[str, str, int], Tuple[tuple, tuple]] = {}

    def fits(self, module: Module, region: Optional[Region], memory: Memory) -> bool:
        return (module is self.module and region is self.region
                and memory.globals == self.layout)

    @classmethod
    def adopt(cls, decoded: Optional["DecodedProgram"], module: Module,
              region: Optional[Region], memory: Memory) -> "DecodedProgram":
        """The decoded program an engine over *module*, *region* and
        *memory* runs: *decoded*, which must fit them, or a new one."""
        if decoded is None:
            return cls(module, region, memory)
        if not decoded.fits(module, region, memory):
            raise ValueError("decoded program was built for another module, "
                             "fault region or global layout")
        return decoded

    def decode(self, func: Function) -> Tuple[str, Dict[str, list]]:
        """*func*'s entry label and its blocks as lists of instructions
        ``(opcode index, dest name, operands, extra, in region)``; an
        operand is ``(True, register name)`` or ``(False, value)``, its
        constant or global address.  ``extra`` holds a branch's
        target(s), a compare's predicate index, a call's callee and
        resume index, or an intrinsic's name.  Decoded on first use."""
        cached = self.funcs.get(func.name)
        if cached is not None:
            return cached
        region = self.region
        layout = self.layout
        order = tuple(func.block_order())
        blocks: Dict[str, list] = {}
        for label in order:
            in_region = True if region is None else region.contains(func.name, label)
            decoded = []
            for idx, instr in enumerate(func.blocks[label].instrs):
                ops = []
                for a in instr.args:
                    if isinstance(a, Reg):
                        ops.append((True, a.name))
                    elif isinstance(a, GlobalAddr):
                        ops.append((False, global_addr(layout, a.name)))
                    else:
                        assert isinstance(a, Const)
                        ops.append((False, a.value))
                code = check_arity(func.name, label, instr)
                dest = instr.dest.name if instr.dest is not None else None
                if instr.op is Opcode.BR:
                    extra = instr.labels[0]
                elif instr.op is Opcode.CBR:
                    extra = ((func.name, label, idx), instr.labels[0], instr.labels[1])
                elif instr.op is Opcode.CALL:
                    # the callee, and where the caller resumes after it
                    extra = (instr.callee, idx + 1)
                elif instr.op is Opcode.INTRIN:
                    extra = instr.callee
                elif instr.op in (Opcode.ICMP, Opcode.FCMP):
                    extra = _PRED[instr.pred]
                else:
                    extra = None
                decoded.append((code, dest, tuple(ops), extra, in_region))
            blocks[label] = decoded
        self.succ[func.name] = (dict(zip(order, order[1:] + (None,))), order)
        cached = self.funcs[func.name] = (order[0], blocks)
        return cached

    def slotted(self, func: Function) -> tuple:
        """*func* as the batch engine runs it: ``(entry, blocks, names,
        slot_of)``, the instructions of :meth:`decode` with every
        register name replaced by a dense slot index — parameters first,
        then registers in first-use order — and the maps between slots
        and names.  Built once per function."""
        view = self._slotted.get(func.name)
        if view is not None:
            return view
        entry, blocks = self.decode(func)
        slot_of: Dict[str, int] = {}

        def slot(name: str) -> int:
            return slot_of.setdefault(name, len(slot_of))

        for p in func.params:
            slot(p.name)
        sblocks: Dict[str, list] = {}
        for label, instrs in blocks.items():
            out = []
            for code, dest, ops, extra, in_region in instrs:
                ops = tuple((True, slot(v)) if k else (k, v) for k, v in ops)
                if dest is not None:
                    dest = slot(dest)
                out.append((code, dest, ops, extra, in_region))
            sblocks[label] = out
        view = self._slotted[func.name] = (entry, sblocks, list(slot_of), slot_of)
        return view

    def live_at(self, frame: ResumeFrame, outer: bool) -> tuple:
        """The registers live where *frame* resumes; for an *outer*
        frame, without its pending call's dest (about to be written)."""
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

    def defines_live(self, frames: Sequence[ResumeFrame]) -> bool:
        """Whether every frame of a paused stack (outermost first) holds
        every register live where it resumes."""
        last = len(frames) - 1
        return all(name in frame.regs for depth, frame in enumerate(frames)
                   for name in self.live_at(frame, depth < last))


class Interpreter:
    """One execution context over a module.

    Create a fresh interpreter after transforming the module — decoded
    instruction caches are built lazily per function and are not
    invalidated.  *decoded* shares an existing cache (it must fit this
    module, fault region and global layout).
    """

    def __init__(
        self,
        module: Module,
        memory: Optional[Memory] = None,
        timing: Optional[TimingModel] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        fault_plan: Optional[FaultPlan] = None,
        fault_region: Optional[Region] = None,
        decoded: Optional[DecodedProgram] = None,
    ):
        self.module = module
        self.memory = memory if memory is not None else Memory()
        if not self.memory.globals and module.globals:
            self.memory.load_globals(module)
        self.timing = timing
        self.max_steps = max_steps
        self.steps = 0
        self.counts: List[int] = [0] * len(OPCODES)
        self.intrinsics: Dict[str, IntrinsicFn] = {}
        self.decoded = decoded = DecodedProgram.adopt(
            decoded, module, fault_region, self.memory)
        #: function name -> (entry, blocks), filled by ``decoded.decode``
        self._dcache = decoded.funcs
        #: layout-successor map and block order per decoded function
        self._succ = decoded.succ

        self.fault_plan = fault_plan
        self.fault_region = fault_region
        self.region_steps = 0
        self._fault_pending = fault_plan is not None
        self._invert_next_cbr = False
        self._corrupt_next_mem: Optional[int] = None
        #: remaining dynamic instructions to drop (skip / skip-burst)
        self._skip_left = 0
        #: pending control-flow retarget pick (cf kind), consumed at the
        #: next executed branch
        self._cf_pick: Optional[float] = None
        #: active register frames, callee last — the SEU injector picks a
        #: victim across the whole stack, modelling one shared physical
        #: register file (stale caller values soak up many upsets)
        self._frames: List[Dict[str, object]] = []
        #: owning function name per active frame, parallel to ``_frames``
        #: (lets scope-aware injectors — O3's protocol-region flips — pick
        #: victims only from frames of designated functions)
        self._frame_funcs: List[str] = []
        #: optional pause hook (``repro.runtime.prefix``): its ``take`` runs
        #: at the first block entry (or resumed frame's mid-block re-entry)
        #: at or past region step ``at`` and returns the next threshold; its
        #: ``call`` runs every CALL so it knows each caller's resume point.
        #: The golden-run capture pauses at every block entry: its record
        #: of block entries and returns names the instruction each region
        #: step executes (section windows, O6's skip sites, block visits)
        self.capture = None

    # -- public API -----------------------------------------------------------
    def register_intrinsics(self, table: Dict[str, IntrinsicFn]) -> None:
        self.intrinsics.update(table)

    def run(self, func_name: str, args: Sequence = (),
            state: Optional[MachineState] = None) -> RunResult:
        """Run *func_name* on *args* to its return — or, given a paused
        *state* (whose pending trigger, if any, is this interpreter's
        plan), continue that execution to its end instead.

        A resumed run re-enters the innermost frame at its (label,
        index); when the frame returns, its value goes into the caller's
        ``call`` dest and the caller continues, outward to the first
        frame.  Every frame is on the stack throughout, so a value flip
        still picks its victim across the whole stack.  A resumed run's
        per-opcode ``counts`` cover only what it executed itself."""
        func = self.module.get_function(func_name)
        if state is None and len(args) != len(func.params):
            raise TypeError(
                f"@{func_name} expects {len(func.params)} arguments, got {len(args)}"
            )
        # span clean runs only: faulted trials emit their own per-trial
        # events and a per-run span would swamp the manifest
        if self.fault_plan is None and obs_enabled():
            with obs_span(f"ref.run:@{func_name}"):
                value = self._start(func, args, state)
        else:
            with self._undef_reads_core_dump():
                value = self._start(func, args, state)
        return self._result(value)

    def _start(self, func: Function, args: Sequence,
               state: Optional[MachineState]):
        if state is None:
            return self._run_function(func, list(args), [0] * len(args),
                                      depth=0)[0]
        self.memory = state.memory
        self.steps = state.steps
        self.region_steps = state.region_steps
        self._fault_pending = state.trigger is not None
        frames = state.frames
        self._frames.extend(frame.regs for frame in frames)
        self._frame_funcs.extend(frame.func for frame in frames)
        value = None
        try:
            for depth in range(len(frames) - 1, -1, -1):
                fname, label, index, regs = frames[depth]
                func = self.module.functions[fname]
                _, blocks = self._dcache.get(fname) or self.decoded.decode(func)
                if depth < len(frames) - 1:
                    dest = blocks[label][index - 1][1]  # the pending call's
                    if dest is not None:
                        regs[dest] = value
                value, _ = self._exec(func, label, blocks, regs, {}, depth,
                                      index)
                self._frames.pop()
                self._frame_funcs.pop()
        finally:
            del self._frames[:], self._frame_funcs[:]
        return value

    @contextmanager
    def _undef_reads_core_dump(self):
        """Under a control-flow fault plan, a read of a never-written
        register (a raw ``KeyError``) is a coredump: dropped defs and
        illegal control edges reach one, verified IR cannot."""
        try:
            yield
        except KeyError as exc:
            if self.fault_plan is None or self.fault_plan.kind not in CONTROL_KINDS:
                raise
            raise CoreDumpError(
                f"read of uninitialized register %{exc.args[0]}") from None

    def _result(self, value) -> RunResult:
        tm = self.timing
        return RunResult(
            value=value,
            steps=self.steps,
            counts=self.count_dict(),
            cycles=tm.cycles if tm else 0,
            ipc=tm.ipc if tm else 0.0,
            region_steps=self.region_steps,
        )

    def count_dict(self) -> Dict[Opcode, int]:
        return {op: self.counts[i] for i, op in enumerate(OPCODES) if self.counts[i]}

    # -- fault machinery ---------------------------------------------------
    def _inject(self, regs: Dict[str, object]) -> None:
        plan = self.fault_plan
        self._fault_pending = False
        if plan.kind == "branch":
            self._invert_next_cbr = True
            return
        if plan.kind == "addr":
            self._corrupt_next_mem = plan.bit
            return
        if plan.kind in SKIP_KINDS:
            # the triggered instruction itself is the first one dropped
            self._skip_left = plan.burst_len
            return
        if plan.kind == "cf":
            self._cf_pick = plan.pick
            return
        slots = []  # the current frame is always on the stack
        for frame in self._frames:
            slots.extend((frame, name) for name in sorted(frame))
        k = victim_index(len(slots), plan.pick)
        if k is None:
            return
        frame, name = slots[k]
        frame[name] = flip_value(frame[name], plan.bit)

    # -- execution -----------------------------------------------------------
    def _run_function(
        self,
        func: Function,
        args: List,
        arg_times: List[int],
        depth: int,
    ) -> Tuple[object, int]:
        if depth > MAX_CALL_DEPTH:
            raise CoreDumpError(f"call depth exceeded in @{func.name}")
        entry, blocks = self._dcache.get(func.name) or self.decoded.decode(func)

        regs: Dict[str, object] = {}
        times: Dict[str, int] = {}
        tm = self.timing
        for p, a, t in zip(func.params, args, arg_times):
            regs[p.name] = a
            if tm:
                times[p.name] = t

        self._frames.append(regs)
        self._frame_funcs.append(func.name)
        try:
            return self._exec(func, entry, blocks, regs, times, depth)
        finally:
            self._frames.pop()
            self._frame_funcs.pop()

    def _exec(
        self,
        func: Function,
        entry: str,
        blocks: Dict[str, list],
        regs: Dict[str, object],
        times: Dict[str, int],
        depth: int,
        start: int = 0,
    ) -> Tuple[object, int]:
        """Run *func* from instruction *start* of block *entry* to its
        return."""
        tm = self.timing
        memory = self.memory
        counts = self.counts
        max_steps = self.max_steps
        label = entry
        fname = func.name
        fault_plan = self.fault_plan
        # skip faults are serviced entirely within the _exec whose trigger
        # armed them (entering a frame needs an executed CALL, leaving one
        # an executed RET — both impossible mid-burst), so the hot loop
        # only pays the pending-skip check when this plan can arm one
        may_skip = fault_plan is not None and fault_plan.kind in SKIP_KINDS
        # steps/region_steps live in locals for the hot loop; the finally
        # below writes them back on every exit (return, trap, hang) and
        # nested calls sync through self, so callers — including fault
        # campaigns inspecting a trapped run — always observe exact totals
        steps = self.steps
        region_steps = self.region_steps
        # unary ops hand the table a stale or None ``b``/``c``; they ignore it
        b = c = None
        instrs = blocks[label][start:] if start else blocks[label]
        capture = self.capture
        capture_at = _NEVER if capture is None else capture.at

        try:
            while True:
                if region_steps >= capture_at:
                    self.steps = steps
                    self.region_steps = region_steps
                    capture_at = capture.take(
                        self, label, len(blocks[label]) - len(instrs))
                for code, dest, ops, extra, in_region in instrs:
                    steps += 1
                    if steps > max_steps:
                        raise HangError(steps)
                    counts[code] += 1
                    if in_region:
                        region_steps += 1
                        if self._fault_pending and region_steps - 1 == fault_plan.step:
                            self._inject(regs)
                    if may_skip and self._skip_left:
                        # drop this instruction: it is fetched and counted
                        # but has no architectural effect.  A dropped
                        # terminator falls through to the next block in
                        # layout order (the PC just advances).
                        self._skip_left -= 1
                        if code == _BR or code == _CBR or code == _RET:
                            nxt = self._succ[fname][0][label]
                            if nxt is None:
                                raise CoreDumpError(
                                    f"block {label} of @{fname} fell "
                                    f"through without terminator")
                            label = nxt
                            break
                        continue

                    # ---- operand fetch --------------------------------------
                    n = len(ops)
                    if n > 0:
                        k, v = ops[0]
                        a = regs[v] if k else v
                        if n > 1:
                            k, v = ops[1]
                            b = regs[v] if k else v

                    # ---- dispatch -------------------------------------------
                    if code == _LOAD:
                        if self._corrupt_next_mem is not None:
                            a = self._corrupt_addr(a)
                        val = memory.load(a)
                        regs[dest] = val
                        if tm:
                            times[dest] = tm.load(a, times.get(ops[0][1], 0) if ops[0][0] else 0)
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
                        if self._invert_next_cbr:
                            taken = not taken
                            self._invert_next_cbr = False
                        if tm:
                            tm.branch(extra[0], taken, times.get(ops[0][1], 0) if ops[0][0] else 0)
                        label = extra[1] if taken else extra[2]
                        if self._cf_pick is not None:
                            label = self._retarget(fname, label)
                        break
                    elif code == _BR:
                        if tm:
                            tm.op(Opcode.BR, 0)
                        label = extra
                        if self._cf_pick is not None:
                            label = self._retarget(fname, label)
                        break
                    elif code == _STORE:
                        if self._corrupt_next_mem is not None:
                            b = self._corrupt_addr(b)
                        memory.store(b, a)
                        if tm:
                            ready = 0
                            if ops[0][0]:
                                ready = times.get(ops[0][1], 0)
                            if ops[1][0]:
                                t2 = times.get(ops[1][1], 0)
                                if t2 > ready:
                                    ready = t2
                            tm.store(b, ready)
                        continue
                    elif code == _RET:
                        if tm:
                            tm.op(Opcode.RET, 0)
                        if n:
                            rt = 0
                            if tm and ops[0][0]:
                                rt = times.get(ops[0][1], 0)
                            return a, rt
                        return None, 0
                    elif code == _CALL:
                        callee = self.module.functions.get(extra[0])
                        if callee is None:
                            raise CoreDumpError(f"call to unknown function @{extra[0]}")
                        vals, vts = [], []
                        for k, v in ops:
                            vals.append(regs[v] if k else v)
                            vts.append(times.get(v, 0) if (tm and k) else 0)
                        if tm:
                            tm.op(Opcode.CALL, max(vts) if vts else 0)
                        self.steps = steps
                        self.region_steps = region_steps
                        try:
                            if capture is None:
                                rv, rt = self._run_function(callee, vals, vts, depth + 1)
                            else:
                                rv, rt = capture.call(self, label, extra[1], callee,
                                                      vals, vts, depth + 1)
                                capture_at = capture.at
                        finally:
                            steps = self.steps
                            region_steps = self.region_steps
                        if dest is not None:
                            regs[dest] = rv
                            if tm:
                                times[dest] = rt
                        continue
                    elif code == _INTRIN:
                        fn = self.intrinsics.get(extra)
                        if fn is None:
                            raise CoreDumpError(f"unknown intrinsic {extra!r}")
                        vals = tuple(regs[v] if k else v for k, v in ops)
                        self.steps = steps
                        self.region_steps = region_steps
                        try:
                            rv, charge = fn(self, vals)
                        finally:
                            steps = self.steps
                            region_steps = self.region_steps
                        for op in charge:
                            counts[op.code] += 1
                        steps += len(charge)
                        if tm:
                            ready = 0
                            for k, v in ops:
                                if k:
                                    t2 = times.get(v, 0)
                                    if t2 > ready:
                                        ready = t2
                            t_end = tm.charge(charge, ready)
                            tm.op(Opcode.INTRIN, ready)
                            if dest is not None:
                                times[dest] = t_end
                        if dest is not None:
                            regs[dest] = rv
                        continue
                    elif code == _ALLOC:
                        regs[dest] = memory.allocate(int(a))
                    else:
                        # every other value op: one call into the shared
                        # semantics table (only SELECT reads a third operand)
                        if n > 2:
                            k, v = ops[2]
                            c = regs[v] if k else v
                        regs[dest] = _OPS[code](a, b, c)

                    # ---- timing for the plain register-register ops ---------
                    if tm and dest is not None:
                        ready = 0
                        for k, v in ops:
                            if k:
                                t2 = times.get(v, 0)
                                if t2 > ready:
                                    ready = t2
                        times[dest] = tm.op(OPCODES[code], ready)
                else:
                    raise CoreDumpError(
                        f"block {label} of @{func.name} fell through without terminator"
                    )
                instrs = blocks[label]
        finally:
            self.steps = steps
            self.region_steps = region_steps

    def _corrupt_addr(self, addr):
        bit = self._corrupt_next_mem
        self._corrupt_next_mem = None
        if isinstance(addr, int):
            return addr ^ (1 << (bit % 24))
        return addr

    def _retarget(self, fname: str, correct: str) -> str:
        """Consume a pending ``cf`` fault: the branch lands on a
        wrong-but-valid block of the same function, chosen by the plan's
        pick over the function's block order.  A single-block function
        offers no wrong target, so the fault is architecturally masked."""
        pick = self._cf_pick
        self._cf_pick = None
        candidates = [lab for lab in self._succ[fname][1] if lab != correct]
        if not candidates:
            return correct
        return candidates[int(pick * len(candidates)) % len(candidates)]

