"""Local simplification: constant folding and algebraic identities.

Block-local and conservative: a fold only fires when every operand of an
instruction is a constant (or a trivially known identity like ``x * 1``).
Registers are mutable in this IR, so no value is propagated across a
redefinition.
"""
from __future__ import annotations

from typing import Dict, Optional

from ..ir.function import Function
from ..ir.instructions import Instr, Opcode
from ..ir.module import Module
from ..ir.values import Const, Reg, Value
from ..runtime.semantics import CODE, PRED, apply

#: opcodes folded when every operand is constant, evaluated through the
#: runtime's semantics table so a fold never changes what a program returns
_FOLDABLE = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.SHL, Opcode.FADD, Opcode.FSUB, Opcode.FMUL,
    Opcode.ICMP, Opcode.FCMP, Opcode.SITOFP,
})


def _const_of(value: Value, env: Dict[str, Const]) -> Optional[Const]:
    if isinstance(value, Const):
        return value
    if isinstance(value, Reg):
        return env.get(value.name)
    return None


def _identity(instr: Instr, env: Dict[str, Const]) -> Optional[Value]:
    """x+0, x*1, x*0 style identities; returns the replacement value."""
    if instr.op not in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.FADD, Opcode.FSUB, Opcode.FMUL):
        return None
    a, b = instr.args
    ca, cb = _const_of(a, env), _const_of(b, env)
    zero = 0.0 if instr.op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL) else 0
    one = 1.0 if instr.op is Opcode.FMUL else 1
    if instr.op in (Opcode.ADD, Opcode.FADD):
        if cb is not None and cb.value == zero:
            return a
        if ca is not None and ca.value == zero:
            return b
    if instr.op in (Opcode.SUB, Opcode.FSUB):
        if cb is not None and cb.value == zero:
            return a
    if instr.op in (Opcode.MUL, Opcode.FMUL):
        if cb is not None and cb.value == one:
            return a
        if ca is not None and ca.value == one:
            return b
    return None


def run_constfold(func: Function) -> int:
    """Fold constants block-locally; returns the number of folds applied."""
    folds = 0
    for block in func.blocks.values():
        env: Dict[str, Const] = {}
        for instr in block.instrs:
            # substitute operands known constant in this block
            def subst(v: Value) -> Value:
                if isinstance(v, Reg):
                    c = env.get(v.name)
                    if c is not None:
                        return c
                return v

            if not instr.is_terminator or instr.op is Opcode.CBR:
                before = instr.args
                instr.replace_uses(subst)
                if instr.args != before:
                    folds += 1

            if instr.dest is None:
                continue

            replacement: Optional[Value] = None
            consts = [_const_of(a, env) for a in instr.args]
            if instr.op is Opcode.MOV:
                replacement = consts[0]
            elif instr.op in _FOLDABLE and all(c is not None for c in consts):
                extra = PRED[instr.pred] if instr.pred is not None else None
                try:
                    raw = apply(CODE[instr.op], extra, *[c.value for c in consts])
                except (OverflowError, ValueError):
                    raw = None
                if raw is not None:
                    replacement = Const(raw, instr.dest.ty)
            else:
                ident = _identity(instr, env)
                if isinstance(ident, Const):
                    replacement = ident

            if isinstance(replacement, Const) and replacement.ty == instr.dest.ty:
                env[instr.dest.name] = replacement
                instr.op = Opcode.MOV
                instr.args = (replacement,)
                instr.pred = None
                folds += 1
            else:
                env.pop(instr.dest.name, None)
    return folds


def run_simplify_module(module: Module) -> int:
    return sum(run_constfold(func) for func in module.functions.values())
