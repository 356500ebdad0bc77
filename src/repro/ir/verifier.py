"""Structural and type verification of IR modules.

The verifier is intentionally strict about structure (terminators, branch
targets, arity) and pragmatic about integer/pointer mixing: address
arithmetic freely mixes ``i64`` and ``ptr``, as it does at the machine
level that the paper's transforms target.
"""
from __future__ import annotations

from typing import Dict, List, Set

from .function import Function
from .instructions import (
    FLOAT_BINOPS,
    FLOAT_UNOPS,
    INT_BINOPS,
    Instr,
    Opcode,
)
from .module import Module
from .types import Type


class VerificationError(ValueError):
    """Raised when a module fails verification; message lists all problems."""


def _check_types(func: Function, instr: Instr, errors: List[str]) -> None:
    # each problem is prefixed ``@func: instr: `` once found: printing
    # every instruction of a clean module would dominate the check
    found: List[str] = []
    op = instr.op

    def want(n: int) -> bool:
        if len(instr.args) != n:
            found.append(f"expected {n} operands, got {len(instr.args)}")
            return False
        return True

    if op in INT_BINOPS:
        if want(2):
            for a in instr.args:
                if not a.ty.is_int:
                    found.append(f"integer op on {a.ty} operand")
            if instr.dest is not None and not instr.dest.ty.is_int:
                found.append(f"integer op writes {instr.dest.ty} register")
    elif op in FLOAT_BINOPS:
        if want(2):
            for a in instr.args:
                if not a.ty.is_float:
                    found.append(f"float op on {a.ty} operand")
    elif op in FLOAT_UNOPS:
        if want(1) and not instr.args[0].ty.is_float:
            found.append(f"float op on {instr.args[0].ty} operand")
    elif op is Opcode.SITOFP:
        if want(1) and not instr.args[0].ty.is_int:
            found.append("sitofp of non-integer")
    elif op is Opcode.FPTOSI:
        if want(1) and not instr.args[0].ty.is_float:
            found.append("fptosi of non-float")
    elif op is Opcode.ICMP:
        if want(2):
            for a in instr.args:
                if not a.ty.is_int:
                    found.append(f"icmp of {a.ty} operand")
    elif op is Opcode.FCMP:
        if want(2):
            for a in instr.args:
                if not a.ty.is_float:
                    found.append(f"fcmp of {a.ty} operand")
    elif op is Opcode.SELECT:
        if want(3):
            if not instr.args[0].ty.is_int:
                found.append("select condition must be integer")
            if instr.args[1].ty != instr.args[2].ty:
                found.append("select arm types differ")
    elif op is Opcode.LOAD:
        if want(1) and not instr.args[0].ty.is_int:
            found.append("load address must be integer/ptr")
    elif op is Opcode.STORE:
        if want(2) and not instr.args[1].ty.is_int:
            found.append("store address must be integer/ptr")
    elif op is Opcode.ALLOC:
        if want(1) and not instr.args[0].ty.is_int:
            found.append("alloc size must be integer")
    elif op is Opcode.CBR:
        if want(1) and not instr.args[0].ty.is_int:
            found.append("branch condition must be integer")
    elif op is Opcode.MOV:
        if want(1) and instr.dest is not None:
            src_ty, dst_ty = instr.args[0].ty, instr.dest.ty
            compatible = src_ty == dst_ty or (src_ty.is_int and dst_ty.is_int)
            if not compatible:
                found.append(f"mov between {src_ty} and {dst_ty}")

    if op in (Opcode.ICMP, Opcode.FCMP) and instr.pred is None:
        found.append("compare without predicate")
    if op in (Opcode.CALL, Opcode.INTRIN) and instr.callee is None:
        found.append("call without callee")
    if found:
        loc = f"@{func.name}: {instr!r}"
        errors.extend(f"{loc}: {problem}" for problem in found)


def _check_definite_assignment(func: Function, errors: List[str]) -> None:
    """Forward dataflow: registers definitely assigned on every path."""
    preds: Dict[str, List[str]] = {label: [] for label in func.blocks}
    for label, block in func.blocks.items():
        for succ in block.successors():
            if succ in preds:
                preds[succ].append(label)

    param_names = {p.name for p in func.params}
    all_defs: Set[str] = set(param_names)
    for instr in func.instructions():
        if instr.dest is not None:
            all_defs.add(instr.dest.name)

    entry_label = func.block_order()[0]
    in_sets: Dict[str, Set[str]] = {label: set(all_defs) for label in func.blocks}
    in_sets[entry_label] = set(param_names)

    changed = True
    order = func.block_order()
    gen: Dict[str, Set[str]] = {}
    for label, block in func.blocks.items():
        gen[label] = {i.dest.name for i in block.instrs if i.dest is not None}
    while changed:
        changed = False
        for label in order:
            if label == entry_label:
                new_in = set(param_names)
            else:
                plist = preds[label]
                if plist:
                    new_in = set.intersection(*(in_sets[p] | gen[p] for p in plist))
                else:
                    new_in = set(param_names)  # unreachable; be lenient
            if new_in != in_sets[label]:
                in_sets[label] = new_in
                changed = True

    for label in order:
        assigned = set(in_sets[label])
        for instr in func.blocks[label].instrs:
            for reg in instr.uses():
                if reg.name not in assigned:
                    errors.append(
                        f"@{func.name}/{label}: register %{reg.name} may be "
                        f"used before assignment in {instr!r}"
                    )
            if instr.dest is not None:
                assigned.add(instr.dest.name)


def verify_function(func: Function, module: Module = None, errors: List[str] = None) -> List[str]:
    """Verify one function; returns the list of problems found."""
    own = errors if errors is not None else []

    if not func.blocks:
        own.append(f"@{func.name}: function has no blocks")
        return own

    for label in func.block_order():
        block = func.blocks[label]
        if not block.instrs:
            own.append(f"@{func.name}/{label}: empty block")
            continue
        if block.terminator is None:
            own.append(f"@{func.name}/{label}: block does not end in a terminator")
        for i, instr in enumerate(block.instrs):
            if instr.is_terminator and i != len(block.instrs) - 1:
                own.append(f"@{func.name}/{label}: terminator {instr!r} mid-block")
            for target in instr.labels:
                if target not in func.blocks:
                    own.append(
                        f"@{func.name}/{label}: branch to unknown block {target!r}"
                    )
            if instr.op is Opcode.RET:
                if func.ret_type is Type.VOID and instr.args:
                    own.append(f"@{func.name}/{label}: void function returns a value")
                if func.ret_type is not Type.VOID and not instr.args:
                    own.append(f"@{func.name}/{label}: missing return value")
            _check_types(func, instr, own)

    _check_definite_assignment(func, own)

    if module is not None:
        for instr in func.instructions():
            if instr.op is Opcode.CALL:
                callee = module.functions.get(instr.callee)
                if callee is None:
                    own.append(f"@{func.name}: call to unknown function @{instr.callee}")
                elif len(callee.params) != len(instr.args):
                    own.append(
                        f"@{func.name}: call to @{instr.callee} with "
                        f"{len(instr.args)} args, expected {len(callee.params)}"
                    )
            for arg in instr.args:
                from .values import GlobalAddr

                if isinstance(arg, GlobalAddr) and arg.name not in module.globals:
                    own.append(f"@{func.name}: reference to unknown global @{arg.name}")
    return own


def verify_module(module: Module) -> None:
    """Verify the whole module; raises :class:`VerificationError` on problems."""
    errors: List[str] = []
    for func in module.functions.values():
        verify_function(func, module, errors)
    if errors:
        raise VerificationError(
            f"module {module.name} failed verification:\n  " + "\n  ".join(errors)
        )
