"""A reference interpreter with execution tracing.

Two jobs:

* **differential testing** — a deliberately simple tree-walking
  evaluator whose results every engine must match (the test suite runs
  them over the same programs);
* **debugging** — it records a bounded trace of executed instructions
  (function, block, instruction text, produced value), so a misbehaving
  transform can be diffed against the original program up to the first
  divergence.

It walks control flow, calls and memory on its own, straight off the
``Instr`` objects, and shares the rest with the fast interpreter:
:class:`repro.runtime.memory.Memory`, the intrinsic convention, and every
value op's semantics, which it evaluates through
:func:`repro.runtime.semantics.apply`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..ir.function import Function
from ..ir.instructions import Instr, Opcode
from ..ir.module import Module
from ..ir.printer import format_instr
from ..ir.values import Const, GlobalAddr, Reg, Value
from .errors import CoreDumpError, HangError
from .memory import Memory
from .semantics import CODE, LAST_VALUE_OP, PRED, apply


@dataclass
class TraceEvent:
    step: int
    function: str
    block: str
    text: str
    value: object = None

    def __str__(self) -> str:
        suffix = "" if self.value is None else f"   ; = {self.value!r}"
        return f"{self.step:>8}  @{self.function}/{self.block}: {self.text}{suffix}"


@dataclass
class Trace:
    events: List[TraceEvent] = field(default_factory=list)
    limit: int = 10_000
    truncated: bool = False

    def append(self, event: TraceEvent) -> None:
        if len(self.events) >= self.limit:
            self.truncated = True
            return
        self.events.append(event)

    def render(self, last: Optional[int] = None) -> str:
        events = self.events if last is None else self.events[-last:]
        lines = [str(e) for e in events]
        if self.truncated:
            lines.append(f"... trace truncated at {self.limit} events")
        return "\n".join(lines)

    def first_divergence(self, other: "Trace") -> Optional[int]:
        """Index of the first differing event, or None if one trace is a
        prefix of the other."""
        for k, (a, b) in enumerate(zip(self.events, other.events)):
            same_value = a.value == b.value or (
                isinstance(a.value, float)
                and isinstance(b.value, float)
                and math.isnan(a.value)
                and math.isnan(b.value)
            )
            if a.text != b.text or not same_value:
                return k
        return None


class ReferenceInterpreter:
    """Straight-line, dictionary-dispatch evaluation of the IR.

    No decoding, no timing, no fault hooks — each instruction is handled
    by reading the Instr object directly.  Intentionally boring.
    """

    def __init__(
        self,
        module: Module,
        memory: Optional[Memory] = None,
        max_steps: int = 50_000_000,
        trace: Optional[Trace] = None,
        trace_functions: Optional[Sequence[str]] = None,
    ):
        self.module = module
        self.memory = memory if memory is not None else Memory()
        if not self.memory.globals and module.globals:
            self.memory.load_globals(module)
        self.max_steps = max_steps
        self.steps = 0
        self.trace = trace
        self.trace_functions = set(trace_functions) if trace_functions else None
        self.intrinsics: Dict[str, object] = {}

    def register_intrinsics(self, table) -> None:
        self.intrinsics.update(table)

    # -- evaluation ------------------------------------------------------
    def _value(self, value: Value, regs: Dict[str, object]):
        if isinstance(value, Reg):
            return regs[value.name]
        if isinstance(value, GlobalAddr):
            return self.memory.global_addr(value.name)
        assert isinstance(value, Const)
        return value.value

    def run(self, func_name: str, args: Sequence = ()):
        func = self.module.get_function(func_name)
        return self._call(func, list(args), depth=0)

    def _call(self, func: Function, args, depth: int):
        if depth > 64:
            raise CoreDumpError("call depth exceeded")
        regs = {p.name: a for p, a in zip(func.params, args)}
        label = func.block_order()[0]
        trace_this = self.trace is not None and (
            self.trace_functions is None or func.name in self.trace_functions
        )

        while True:
            block = func.blocks[label]
            jumped = False
            for instr in block.instrs:
                self.steps += 1
                if self.steps > self.max_steps:
                    raise HangError(self.steps)
                result = self._eval(instr, regs, func, depth)
                if trace_this:
                    value = regs.get(instr.dest.name) if instr.dest else None
                    self.trace.append(
                        TraceEvent(self.steps, func.name, label,
                                   format_instr(instr), value)
                    )
                if result is not None:
                    kind, payload = result
                    if kind == "jump":
                        label = payload
                        jumped = True
                        break
                    return payload
            if not jumped:
                raise CoreDumpError(f"block {label} fell through")

    def _eval(self, instr: Instr, regs, func: Function, depth: int):
        op = instr.op
        mem = self.memory
        val = lambda v: self._value(v, regs)  # noqa: E731

        if CODE[op] <= LAST_VALUE_OP:
            extra = PRED[instr.pred] if instr.pred is not None else None
            regs[instr.dest.name] = apply(
                CODE[op], extra, *[val(a) for a in instr.args])
        elif op is Opcode.LOAD:
            regs[instr.dest.name] = mem.load(val(instr.args[0]))
        elif op is Opcode.STORE:
            mem.store(val(instr.args[1]), val(instr.args[0]))
        elif op is Opcode.ALLOC:
            regs[instr.dest.name] = mem.allocate(int(val(instr.args[0])))
        elif op is Opcode.BR:
            return ("jump", instr.labels[0])
        elif op is Opcode.CBR:
            c = val(instr.args[0])
            taken = c != 0 and c == c
            return ("jump", instr.labels[0] if taken else instr.labels[1])
        elif op is Opcode.RET:
            return ("ret", val(instr.args[0]) if instr.args else None)
        elif op is Opcode.CALL:
            callee = self.module.functions.get(instr.callee)
            if callee is None:
                raise CoreDumpError(f"call to unknown function @{instr.callee}")
            result = self._call(callee, [val(a) for a in instr.args], depth + 1)
            if instr.dest is not None:
                regs[instr.dest.name] = result
        elif op is Opcode.INTRIN:
            fn = self.intrinsics.get(instr.callee)
            if fn is None:
                raise CoreDumpError(f"unknown intrinsic {instr.callee!r}")
            result, charge = fn(self, tuple(val(a) for a in instr.args))
            self.steps += len(charge)
            if instr.dest is not None:
                regs[instr.dest.name] = result
        else:  # pragma: no cover - exhaustive
            raise CoreDumpError(f"unhandled opcode {op}")
        return None


def trace_run(
    module: Module,
    func_name: str,
    args: Sequence,
    memory: Optional[Memory] = None,
    limit: int = 10_000,
    intrinsics=None,
    functions: Optional[Sequence[str]] = None,
):
    """Run under the reference interpreter with tracing; returns
    ``(trace, return_value)``."""
    trace = Trace(limit=limit)
    interp = ReferenceInterpreter(
        module, memory=memory, trace=trace, trace_functions=functions
    )
    if intrinsics:
        interp.register_intrinsics(intrinsics)
    value = interp.run(func_name, args)
    return trace, value
