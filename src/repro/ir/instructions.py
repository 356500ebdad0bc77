"""Instruction set of the repro IR.

Three-address register-machine instructions.  Every instruction has an
optional destination register (``dest``) and a tuple of operand values
(``args``).  Control-flow instructions carry block labels; calls carry a
callee name.  The set is intentionally close to the subset of LLVM IR that
the paper's transforms manipulate: arithmetic, comparisons, loads/stores,
branches and calls — stores, branches and calls are the *synchronization
points* of the protection schemes.
"""
from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .values import Reg, Value


class Opcode(enum.Enum):
    # data movement
    MOV = "mov"
    # integer arithmetic (i64 / ptr)
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SDIV = "sdiv"
    SREM = "srem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    LSHR = "lshr"
    # float arithmetic (f64)
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    # float unary
    FNEG = "fneg"
    FABS = "fabs"
    SQRT = "sqrt"
    EXP = "exp"
    LOG = "log"
    SIN = "sin"
    COS = "cos"
    FLOOR = "floor"
    # conversions
    SITOFP = "sitofp"
    FPTOSI = "fptosi"
    # comparisons
    ICMP = "icmp"
    FCMP = "fcmp"
    SELECT = "select"
    # memory
    LOAD = "load"
    STORE = "store"
    ALLOC = "alloc"
    # control flow
    BR = "br"
    CBR = "cbr"
    CALL = "call"
    RET = "ret"
    # runtime intrinsic call (predictors, run-time management)
    INTRIN = "intrin"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: each opcode's index in declaration order (``Opcode.X.code``): the
#: engines' per-opcode count lists use it, and a plain attribute read
#: costs less than hashing the member on a hot path
for _code, _op in enumerate(Opcode):
    _op.code = _code
del _code, _op


class CmpPred(enum.Enum):
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


INT_BINOPS = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.SDIV,
        Opcode.SREM,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.LSHR,
    }
)
FLOAT_BINOPS = frozenset({Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV})
FLOAT_UNOPS = frozenset(
    {
        Opcode.FNEG,
        Opcode.FABS,
        Opcode.SQRT,
        Opcode.EXP,
        Opcode.LOG,
        Opcode.SIN,
        Opcode.COS,
        Opcode.FLOOR,
    }
)
TERMINATORS = frozenset({Opcode.BR, Opcode.CBR, Opcode.RET})
#: Synchronization points of the protection schemes (see paper section 2).
SYNC_OPCODES = frozenset({Opcode.STORE, Opcode.CBR, Opcode.CALL, Opcode.BR, Opcode.RET})


class Instr:
    """A single IR instruction.

    ``dest`` is ``None`` for instructions that produce no value (stores,
    branches, void calls).  ``args`` holds the value operands in a fixed
    order documented per opcode.
    """

    __slots__ = ("op", "dest", "args", "labels", "callee", "pred")

    def __init__(
        self,
        op: Opcode,
        dest: Optional[Reg] = None,
        args: Sequence[Value] = (),
        labels: Sequence[str] = (),
        callee: Optional[str] = None,
        pred: Optional[CmpPred] = None,
    ):
        self.op = op
        self.dest = dest
        self.args: Tuple[Value, ...] = tuple(args)
        self.labels: Tuple[str, ...] = tuple(labels)
        self.callee = callee
        self.pred = pred

    # -- classification -------------------------------------------------
    @property
    def is_terminator(self) -> bool:
        return self.op in TERMINATORS

    @property
    def is_sync_point(self) -> bool:
        """True if this instruction is a synchronization point for fault
        protection (its inputs must be validated before it executes)."""
        return self.op in (Opcode.STORE, Opcode.CBR, Opcode.CALL)

    @property
    def has_side_effect(self) -> bool:
        return self.op in (Opcode.STORE, Opcode.CALL, Opcode.INTRIN, Opcode.ALLOC)

    # -- rewriting support ----------------------------------------------
    def uses(self) -> List[Reg]:
        """Registers read by this instruction."""
        return [a for a in self.args if isinstance(a, Reg)]

    def rename(self, mapping: Dict[str, Reg]) -> "Instr":
        """Return a copy with operand registers substituted via *mapping*.

        The destination register is *not* renamed; callers that clone
        computation (duplication transforms) rename destinations themselves.
        """
        new_args = tuple(
            mapping.get(a.name, a) if isinstance(a, Reg) else a for a in self.args
        )
        return Instr(
            self.op,
            dest=self.dest,
            args=new_args,
            labels=self.labels,
            callee=self.callee,
            pred=self.pred,
        )

    def copy(self) -> "Instr":
        return Instr(
            self.op,
            dest=self.dest,
            args=self.args,
            labels=self.labels,
            callee=self.callee,
            pred=self.pred,
        )

    def replace_uses(self, fn: Callable[[Value], Value]) -> None:
        """Rewrite operands in place through *fn* (used by simplify/DCE)."""
        self.args = tuple(fn(a) for a in self.args)

    def __repr__(self) -> str:
        from .printer import format_instr

        return format_instr(self)
