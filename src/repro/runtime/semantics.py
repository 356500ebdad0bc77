"""Value-op semantics: the one definition every engine consumes.

Each value opcode's arithmetic, trap conversion and lazy 64-bit wrap is
written here once.  The reference interpreter, the batch engine (uniform,
sparse and per-lane paths), the compiled backend and the constant folder
all evaluate the cold value ops through :data:`OPS` or :func:`apply`.

The hot ops that run on every trial step — MOV, ADD/FADD, SUB/FSUB,
FMUL, MUL and ICMP/FCMP — stay inlined in the engines' dispatch loops and
the compiler's templates.  ``test_vector_path_matches_table`` in
``tests/runtime/test_compiler.py`` runs each of them over ints, wrap-sized
ints, floats, NaN, infinities and mixed types on every engine and checks
the value and its type against :func:`apply` directly.

Integer wrap policy: results are Python ints of arbitrary precision, so
``MUL`` and ``SHL`` may exceed 64 bits transiently; once the magnitude
passes :data:`HUGE_INT` they fold back to 64 bits with :data:`INT_MASK64`,
so repeated multiplies and shifts cannot grow without bound.
"""
from __future__ import annotations

import math
import operator
from typing import Callable, Dict, List, Optional

from ..ir.instructions import CmpPred, Opcode
from .errors import CoreDumpError

#: Opcode index order shared by every decoder (``code`` in decoded records).
OPCODES: List[Opcode] = list(Opcode)
CODE: Dict[Opcode, int] = {op: op.code for op in OPCODES}
#: The value ops (everything :func:`apply` evaluates) are codes
#: ``0 .. LAST_VALUE_OP``; memory and control opcodes follow.
LAST_VALUE_OP = CODE[Opcode.SELECT]

#: Comparison predicate codes (the decoded ``extra`` of ICMP/FCMP).
PRED: Dict[CmpPred, int] = {
    CmpPred.EQ: 0,
    CmpPred.NE: 1,
    CmpPred.LT: 2,
    CmpPred.LE: 3,
    CmpPred.GT: 4,
    CmpPred.GE: 5,
}

#: The six predicates, indexed by :data:`PRED` code.
PREDICATES = (operator.eq, operator.ne, operator.lt, operator.le,
              operator.gt, operator.ge)

#: Lazy-wrap bound and mask (see the module docstring).
HUGE_INT = 1 << 128
INT_MASK64 = (1 << 64) - 1


# -- the cold value ops: one pure function each --------------------------------
def _sdiv(a, b, c=None):
    try:
        q = abs(a) // abs(b)
    except ZeroDivisionError:
        raise CoreDumpError("integer division by zero") from None
    return q if (a >= 0) == (b >= 0) else -q


def _srem(a, b, c=None):
    try:
        q = abs(a) // abs(b)
    except ZeroDivisionError:
        raise CoreDumpError("integer remainder by zero") from None
    return a - b * q * (1 if (a >= 0) == (b >= 0) else -1)


def _fdiv(a, b, c=None):
    try:
        return a / b
    except ZeroDivisionError:
        return math.nan if a == 0 else math.copysign(math.inf, a)


def _fneg(a, b=None, c=None):
    return -a


def _fabs(a, b=None, c=None):
    return abs(a)


def _sqrt(a, b=None, c=None):
    return math.sqrt(a) if a >= 0 else math.nan


def _exp(a, b=None, c=None):
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def _log(a, b=None, c=None):
    try:
        return math.log(a)
    except ValueError:
        return math.nan


def _sin(a, b=None, c=None):
    return math.sin(a) if math.isfinite(a) else math.nan


def _cos(a, b=None, c=None):
    return math.cos(a) if math.isfinite(a) else math.nan


def _floor(a, b=None, c=None):
    return math.floor(a) if math.isfinite(a) else a


def _sitofp(a, b=None, c=None):
    return float(a)


def _fptosi(a, b=None, c=None):
    try:
        return int(a)
    except (ValueError, OverflowError):
        raise CoreDumpError("float-to-int conversion trap") from None


def _select(a, b, c):
    # a NaN condition selects the false operand, like a NaN branch
    return b if (a != 0 and a == a) else c


def _and(a, b, c=None):
    return int(a) & int(b)


def _or(a, b, c=None):
    return int(a) | int(b)


def _xor(a, b, c=None):
    return int(a) ^ int(b)


def _shl(a, b, c=None):
    r = int(a) << (int(b) & 63)
    if r > HUGE_INT or r < -HUGE_INT:
        r &= INT_MASK64
    return r


def _lshr(a, b, c=None):
    return (int(a) & INT_MASK64) >> (int(b) & 63)


#: Cold value ops indexed by opcode code; ``None`` for the inlined hot
#: ops and the memory / control opcodes.  Every entry takes ``(a, b, c)``
#: with the unused trailing operands optional.
OPS: List[Optional[Callable]] = [None] * len(OPCODES)
for _op, _fn in {
    Opcode.SDIV: _sdiv, Opcode.SREM: _srem, Opcode.FDIV: _fdiv,
    Opcode.FNEG: _fneg, Opcode.FABS: _fabs, Opcode.SQRT: _sqrt,
    Opcode.EXP: _exp, Opcode.LOG: _log, Opcode.SIN: _sin, Opcode.COS: _cos,
    Opcode.FLOOR: _floor, Opcode.SITOFP: _sitofp, Opcode.FPTOSI: _fptosi,
    Opcode.SELECT: _select, Opcode.AND: _and, Opcode.OR: _or,
    Opcode.XOR: _xor, Opcode.SHL: _shl, Opcode.LSHR: _lshr,
}.items():
    OPS[CODE[_op]] = _fn

_MOV = CODE[Opcode.MOV]
_ADD = CODE[Opcode.ADD]
_SUB = CODE[Opcode.SUB]
_MUL = CODE[Opcode.MUL]
_FADD = CODE[Opcode.FADD]
_FSUB = CODE[Opcode.FSUB]
_FMUL = CODE[Opcode.FMUL]
_ICMP = CODE[Opcode.ICMP]
_FCMP = CODE[Opcode.FCMP]


def apply(code: int, extra, a, b=None, c=None):
    """One application of any value op (``extra`` is the :data:`PRED`
    code of a comparison).  The hot ops are tested first, in the order
    the engines inline them; everything else is one :data:`OPS` call."""
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
        if isinstance(r, int) and (r > HUGE_INT or r < -HUGE_INT):
            r &= INT_MASK64
        return r
    if code == _ICMP or code == _FCMP:
        return 1 if PREDICATES[extra](a, b) else 0
    return OPS[code](a, b, c)
