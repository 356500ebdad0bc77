"""Static cost estimation.

A single latency/weight table serves two consumers:

* the **timing model** (`repro.runtime.scheduler`) uses ``LATENCY`` as the
  per-opcode completion latency in cycles, and
* the **pattern detector** uses :func:`estimate_cost` to decide whether a
  loop's value computation is expensive enough to be an approximation
  target ("the user function call that has the number of instructions above
  threshold", paper section 4).

Latencies are modelled on a mainstream out-of-order x86 core (the paper's
Xeon E31230): 1-cycle integer ALU, 3-5 cycle FP add/mul, long-latency
divide/transcendentals, L1-hit loads.
"""
from __future__ import annotations

from typing import Dict, Optional

from ..ir.function import Function
from ..ir.instructions import Instr, Opcode
from ..ir.module import Module
from .cfg import CFG
from .loops import find_loops, loop_depth_map

#: Completion latency in cycles per opcode.
LATENCY: Dict[Opcode, int] = {
    Opcode.MOV: 1,
    Opcode.ADD: 1,
    Opcode.SUB: 1,
    Opcode.MUL: 3,
    Opcode.SDIV: 20,
    Opcode.SREM: 20,
    Opcode.AND: 1,
    Opcode.OR: 1,
    Opcode.XOR: 1,
    Opcode.SHL: 1,
    Opcode.LSHR: 1,
    Opcode.FADD: 3,
    Opcode.FSUB: 3,
    Opcode.FMUL: 4,
    Opcode.FDIV: 14,
    Opcode.FNEG: 1,
    Opcode.FABS: 1,
    Opcode.SQRT: 15,
    Opcode.EXP: 25,
    Opcode.LOG: 25,
    Opcode.SIN: 25,
    Opcode.COS: 25,
    Opcode.FLOOR: 3,
    Opcode.SITOFP: 4,
    Opcode.FPTOSI: 4,
    Opcode.ICMP: 1,
    Opcode.FCMP: 3,
    Opcode.SELECT: 1,
    Opcode.LOAD: 4,
    Opcode.STORE: 1,
    Opcode.ALLOC: 1,
    Opcode.BR: 1,
    Opcode.CBR: 1,
    Opcode.CALL: 2,
    Opcode.RET: 1,
    Opcode.INTRIN: 2,
}

#: Assumed iteration count for loops whose trip count is not a constant
#: (used only for static cost ranking, mirroring LLVM's heuristic).
DEFAULT_TRIP = 16


def instr_cost(instr: Instr) -> int:
    return LATENCY.get(instr.op, 1)


def estimate_function_cost(
    func: Function,
    module: Optional[Module] = None,
    _stack: Optional[frozenset] = None,
) -> int:
    """Weighted static cost: instruction latencies scaled by loop depth.

    Calls add the callee's cost when the module is supplied (recursion is
    cut off conservatively).
    """
    stack = _stack or frozenset()
    cfg = CFG(func)
    depth = loop_depth_map(find_loops(func, cfg))
    total = 0
    for label in func.block_order():
        weight = DEFAULT_TRIP ** depth.get(label, 0)
        for instr in func.blocks[label].instrs:
            cost = instr_cost(instr)
            if (
                instr.op is Opcode.CALL
                and module is not None
                and instr.callee in module.functions
                and instr.callee not in stack
            ):
                cost += estimate_function_cost(
                    module.functions[instr.callee],
                    module,
                    stack | {func.name},
                )
            total += cost * weight
    return total
