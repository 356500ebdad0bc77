"""Natural-loop detection and canonical induction-variable recognition.

RSkip's pattern detector (`repro.analysis.patterns`) builds on the loop
forest found here: it needs the loop header, latch, exit blocks and — for
the transform — the canonical counted-loop shape (induction register,
bound, step) that the builder emits and the parser accepts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..ir.function import Function
from ..ir.instructions import CmpPred, Instr, Opcode
from ..ir.values import Const, Reg, Value
from .cfg import CFG
from .dominators import compute_idom


@dataclass(eq=False)
class Loop:
    """A natural loop: header plus the set of blocks on paths to latches.

    Identity semantics (two Loop objects are equal only if they are the
    same analysis result), so loops can live in sets and dict keys.
    """

    header: str
    blocks: Set[str] = field(default_factory=set)
    latches: List[str] = field(default_factory=list)
    parent: Optional["Loop"] = None
    children: List["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        d, cur = 1, self.parent
        while cur is not None:
            d += 1
            cur = cur.parent
        return d

    def contains(self, label: str) -> bool:
        return label in self.blocks

    def __repr__(self) -> str:
        return f"<Loop header={self.header} depth={self.depth} blocks={len(self.blocks)}>"


@dataclass
class InductionInfo:
    """Canonical counted-loop description: ``for (i = start; i < bound; i += step)``."""

    reg: Reg
    start: Value
    bound: Value
    step: Value
    cmp_instr: Instr
    update_block: str


def find_loops(func: Function, cfg: Optional[CFG] = None) -> List[Loop]:
    """All natural loops of *func*, nesting links populated, outermost first."""
    if cfg is None:
        cfg = CFG(func)
    idom = compute_idom(cfg)

    loops_by_header: Dict[str, Loop] = {}
    for tail, head in cfg.back_edges(idom):
        loop = loops_by_header.setdefault(head, Loop(header=head))
        loop.latches.append(tail)
        loop.blocks.add(head)
        # walk predecessors from the latch up to the header
        stack = [tail]
        while stack:
            label = stack.pop()
            if label in loop.blocks:
                continue
            loop.blocks.add(label)
            stack.extend(p for p in cfg.preds.get(label, ()) if p not in loop.blocks)

    loops = list(loops_by_header.values())
    # nesting: parent is the smallest strictly-containing loop
    for loop in loops:
        best: Optional[Loop] = None
        for other in loops:
            if other is loop:
                continue
            if loop.header in other.blocks and loop.blocks < other.blocks | {loop.header}:
                if loop.blocks <= other.blocks:
                    if best is None or len(other.blocks) < len(best.blocks):
                        best = other
        loop.parent = best
    for loop in loops:
        if loop.parent is not None:
            loop.parent.children.append(loop)

    loops.sort(key=lambda l: (l.depth, l.header))
    return loops


def loop_depth_map(loops: List[Loop]) -> Dict[str, int]:
    """Map block label -> nesting depth (0 outside any loop)."""
    depth: Dict[str, int] = {}
    for loop in loops:
        for label in loop.blocks:
            depth[label] = max(depth.get(label, 0), loop.depth)
    return depth


def find_induction(func: Function, loop: Loop, cfg: CFG) -> Optional[InductionInfo]:
    """Recognize the canonical counted-loop shape.

    Expected: the header's terminator is ``cbr (icmp lt %i, bound)`` and some
    block in the loop updates ``%i`` with ``%i = mov (add %i, step)`` or a
    direct ``%i = add %i, step``.  Returns ``None`` for irregular loops.
    """
    header = func.blocks[loop.header]
    term = header.terminator
    if term is None or term.op is not Opcode.CBR:
        return None
    cond = term.args[0]
    if not isinstance(cond, Reg):
        return None
    cmp_instr = None
    for instr in header.instrs:
        if instr.dest is not None and instr.dest.name == cond.name:
            cmp_instr = instr
    if cmp_instr is None or cmp_instr.op is not Opcode.ICMP:
        return None
    if cmp_instr.pred not in (CmpPred.LT, CmpPred.LE, CmpPred.NE):
        return None
    ivar, bound = cmp_instr.args
    if not isinstance(ivar, Reg):
        return None

    # find the update inside the loop:  %tmp = add %i, step ; %i = mov %tmp
    # or the direct form  %i = add %i, step
    for label in sorted(loop.blocks):
        block = func.blocks[label]
        adds: Dict[str, Instr] = {}
        for instr in block.instrs:
            if (
                instr.op is Opcode.ADD
                and instr.dest is not None
                and instr.args
                and isinstance(instr.args[0], Reg)
                and instr.args[0].name == ivar.name
            ):
                adds[instr.dest.name] = instr
                if instr.dest.name == ivar.name:
                    start = _find_start(func, loop, ivar, cfg)
                    return InductionInfo(ivar, start, bound, instr.args[1], cmp_instr, label)
            if (
                instr.op is Opcode.MOV
                and instr.dest is not None
                and instr.dest.name == ivar.name
                and isinstance(instr.args[0], Reg)
                and instr.args[0].name in adds
            ):
                add_instr = adds[instr.args[0].name]
                start = _find_start(func, loop, ivar, cfg)
                return InductionInfo(ivar, start, bound, add_instr.args[1], cmp_instr, label)
    return None


def _find_start(func: Function, loop: Loop, ivar: Reg, cfg: CFG) -> Value:
    """Initial value: last ``mov %i, <v>`` in a predecessor outside the loop."""
    for pred in cfg.preds.get(loop.header, ()):
        if pred in loop.blocks:
            continue
        for instr in reversed(func.blocks[pred].instrs):
            if (
                instr.op is Opcode.MOV
                and instr.dest is not None
                and instr.dest.name == ivar.name
            ):
                return instr.args[0]
    return Const(0, ivar.ty) if ivar.ty.is_int else ivar
