"""Detection of RSkip approximation-target loops (paper section 4).

A *target loop* stores, once per iteration, a float value produced by an
expensive computation — either a reduction (child loop) or a call to a
costly function — at an address that is an affine function of the
induction variable.  Loops computing pointers, or with low computational
overhead (initialization), are filtered out by the cost threshold and the
type checks; they fall back to conventional protection.

The detector also powers the Table 1 reproduction: for every workload it
reports the *computation type of the prediction target* and the *location
of the detected loop*.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ir.function import Function
from ..ir.instructions import Opcode
from ..ir.module import Module
from ..ir.values import Const, GlobalAddr, Reg, Value
from .cfg import CFG
from .costmodel import DEFAULT_TRIP, estimate_function_cost, instr_cost
from .defuse import Chains, Site, compute_chains, compute_slice, defining_instr
from .loops import InductionInfo, Loop, find_induction, find_loops

#: Minimum per-iteration cost for a loop to be worth predicting.
MIN_TARGET_COST = 40
#: Minimum callee cost for a call to count as an expensive user function.
MIN_CALL_COST = 40

_AFFINE_OPS = frozenset(
    {Opcode.MOV, Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.SHL, Opcode.SITOFP}
)


class PatternKind(enum.Enum):
    """Computation type of the prediction target (Table 1 vocabulary)."""

    FUNCTION_CALL = "a function call"
    REDUCTION_LOOP = "a reduction loop"
    NESTED_REDUCTION = "nested reduction loops"
    NESTED_REDUCTION_COND = "nested reduction loops with conditional statement"
    REDUCTION_VARYING = "a reduction loop with a varying trip count"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class TargetLoop:
    """One detected optimization candidate, ready for the RSkip transform."""

    func_name: str
    loop: Loop
    ind: InductionInfo
    region_labels: List[str]
    region_entry: str
    store_site: Site
    value_reg: Reg
    addr_value: Value
    addr_sites: List[Site]
    live_ins: List[Reg]
    rmw_load_sites: List[Site]
    kind: PatternKind
    per_iter_cost: int
    inside_outer_loop: bool
    callee: Optional[str] = None

    @property
    def location(self) -> str:
        return "Inside a outer loop" if self.inside_outer_loop else "Top level"

    def describe(self) -> str:
        return (
            f"@{self.func_name}:{self.loop.header}: {self.kind} "
            f"(cost/iter ~{self.per_iter_cost}, {self.location.lower()})"
        )


def _region_of(func: Function, loop: Loop, ind: InductionInfo) -> Optional[Tuple[List[str], str]]:
    """Body region: loop blocks minus header and the induction-update block.

    Requires single entry (the in-loop successor of the header).  Returns
    (region labels in block order, entry label).
    """
    header_block = func.blocks[loop.header]
    in_loop_succs = [s for s in header_block.successors() if s in loop.blocks]
    if len(in_loop_succs) != 1:
        return None
    entry = in_loop_succs[0]
    region = [
        label
        for label in func.block_order()
        if label in loop.blocks and label not in (loop.header, ind.update_block)
    ]
    if entry not in region:
        return None
    return region, entry


def _expr_key(func: Function, value: Value, chains: Chains, region: Set[str], depth: int = 0):
    """Structural key of a value's defining expression within the region.

    Live-ins (registers defined outside the region) and constants are
    leaves; everything else recurses through its single definition.  Used to
    recognize read-modify-write loads whose address equals the store address
    even when computed into different registers.
    """
    if isinstance(value, Const):
        return ("const", value.ty, value.value)
    if isinstance(value, GlobalAddr):
        return ("global", value.name)
    assert isinstance(value, Reg)
    sites = [s for s in chains.def_sites(value.name) if s[0] in region]
    if len(sites) != 1 or depth > 12:
        return ("reg", value.name)
    instr = defining_instr(func, sites[0])
    if instr.op not in _AFFINE_OPS:
        return ("opaque", value.name)
    return (instr.op,) + tuple(
        _expr_key(func, a, chains, region, depth + 1) for a in instr.args
    )


def _classify(
    func: Function,
    module: Optional[Module],
    loop: Loop,
    region: Sequence[str],
    slice_sites: Sequence[Site],
) -> Tuple[Optional[PatternKind], Optional[str]]:
    """Determine the pattern kind for a value slice, or (None, None) if the
    computation is too cheap to be a target."""
    # expensive call?
    for site in slice_sites:
        instr = defining_instr(func, site)
        if instr.op is Opcode.CALL:
            callee_cost = 0
            if module is not None and instr.callee in module.functions:
                callee_cost = estimate_function_cost(module.functions[instr.callee], module)
            if callee_cost >= MIN_CALL_COST:
                return PatternKind.FUNCTION_CALL, instr.callee

    children = loop.children
    slice_blocks = {s[0] for s in slice_sites}
    involved = [c for c in children if c.blocks & slice_blocks]
    if not involved:
        return None, None

    nested = any(c.children for c in involved)
    varying = _has_varying_trip(func, involved, loop)
    conditional = _has_conditional(func, involved)
    if nested and conditional:
        return PatternKind.NESTED_REDUCTION_COND, None
    if nested:
        return PatternKind.NESTED_REDUCTION, None
    if varying:
        return PatternKind.REDUCTION_VARYING, None
    if conditional:
        return PatternKind.NESTED_REDUCTION_COND, None
    return PatternKind.REDUCTION_LOOP, None


def _has_conditional(func: Function, loops: Sequence[Loop]) -> bool:
    """True if some block inside a child loop (transitively), other than a
    loop header, ends in a conditional branch — a data-dependent 'if'."""
    for loop in loops:
        headers = {loop.header} | {c.header for c in loop.children}
        stack = list(loop.children)
        while stack:
            c = stack.pop()
            headers.add(c.header)
            stack.extend(c.children)
        for label in loop.blocks:
            if label in headers:
                continue
            block = func.blocks[label]
            term = block.terminator
            if term is not None and term.op is Opcode.CBR:
                return True
    return False


def _has_varying_trip(func: Function, children: Sequence[Loop], outer: Loop) -> bool:
    """True when a child loop's trip count varies across executions of the
    detected loop (lud's 'reduction loop with a varying trip count'): its
    bound is the detected loop's induction variable, or a register defined
    inside an enclosing loop of the detected loop."""
    cfg = CFG(func)
    outer_ind = find_induction(func, outer, cfg)
    enclosing_blocks: Set[str] = set()
    ancestor = outer.parent
    while ancestor is not None:
        enclosing_blocks |= ancestor.blocks
        ancestor = ancestor.parent
    enclosing_blocks -= outer.blocks

    for child in children:
        ind = find_induction(func, child, cfg)
        if ind is None:
            continue
        for value in (ind.bound, ind.start):
            if not isinstance(value, Reg):
                continue
            if outer_ind is not None and value.name == outer_ind.reg.name:
                return True
            for label in enclosing_blocks:
                for instr in func.blocks[label].instrs:
                    if instr.dest is not None and instr.dest.name == value.name:
                        return True
    return False


def _affine_only(func: Function, sites: Sequence[Site]) -> bool:
    return all(defining_instr(func, s).op in _AFFINE_OPS for s in sites)


def _region_cost(func: Function, loop: Loop, region: Sequence[str], module: Optional[Module]) -> int:
    """Per-iteration cost of the region, child loops weighted by DEFAULT_TRIP."""
    depth_of: Dict[str, int] = {}
    stack = [(c, 1) for c in loop.children]
    while stack:
        child, d = stack.pop()
        for label in child.blocks:
            depth_of[label] = max(depth_of.get(label, 0), d)
        stack.extend((g, d + 1) for g in child.children)
    total = 0
    for label in region:
        weight = DEFAULT_TRIP ** depth_of.get(label, 0)
        for instr in func.blocks[label].instrs:
            cost = instr_cost(instr)
            if (
                instr.op is Opcode.CALL
                and module is not None
                and instr.callee in module.functions
            ):
                cost += estimate_function_cost(module.functions[instr.callee], module)
            total += cost * weight
    return total


def detect_target_loops(
    func: Function,
    module: Optional[Module] = None,
    min_cost: int = MIN_TARGET_COST,
) -> List[TargetLoop]:
    """Find all approximation-target loops of *func* (outermost match wins
    for nested candidates: a loop inside an already-selected region is not
    reported separately)."""
    cfg = CFG(func)
    loops = find_loops(func, cfg)
    chains = compute_chains(func)
    targets: List[TargetLoop] = []
    claimed: Set[str] = set()

    for loop in loops:
        if loop.header in claimed:
            continue
        ind = find_induction(func, loop, cfg)
        if ind is None:
            continue
        region_info = _region_of(func, loop, ind)
        if region_info is None:
            continue
        region, entry = region_info
        region_set = set(region)

        child_blocks: Set[str] = set()
        for child in loop.children:
            child_blocks |= child.blocks

        stores = [
            (label, idx)
            for label in region
            if label not in child_blocks
            for idx, instr in enumerate(func.blocks[label].instrs)
            if instr.op is Opcode.STORE
        ]
        all_stores = [
            (label, idx)
            for label in region
            for idx, instr in enumerate(func.blocks[label].instrs)
            if instr.op is Opcode.STORE
        ]
        if len(stores) != 1 or len(all_stores) != 1:
            continue  # multi-output loops fall back to conventional protection
        store_site = stores[0]
        store = defining_instr(func, store_site)
        value, addr = store.args
        if not isinstance(value, Reg) or not value.ty.is_float:
            continue  # pointer/integer outputs are never approximated

        slice_sites = compute_slice(func, value, region_set, chains)
        kind, callee = _classify(func, module, loop, region, slice_sites)
        if kind is None:
            continue
        cost = _region_cost(func, loop, region, module)
        if cost < min_cost:
            continue

        addr_sites: List[Site] = []
        if isinstance(addr, Reg):
            addr_sites = compute_slice(func, addr, region_set, chains)
            if not _affine_only(func, addr_sites):
                continue  # cannot rematerialize the address in the wrapper

        # read-modify-write detection: loads from the store's own address
        addr_key = _expr_key(func, addr, chains, region_set)
        rmw_sites = []
        for site in slice_sites:
            instr = defining_instr(func, site)
            if instr.op is Opcode.LOAD:
                if _expr_key(func, instr.args[0], chains, region_set) == addr_key:
                    rmw_sites.append(site)

        live_ins = _live_ins(func, loop, region, ind, chains)

        targets.append(
            TargetLoop(
                func_name=func.name,
                loop=loop,
                ind=ind,
                region_labels=region,
                region_entry=entry,
                store_site=store_site,
                value_reg=value,
                addr_value=addr,
                addr_sites=addr_sites,
                live_ins=live_ins,
                rmw_load_sites=rmw_sites,
                kind=kind,
                per_iter_cost=cost,
                inside_outer_loop=loop.parent is not None,
                callee=callee,
            )
        )
        claimed.add(loop.header)
        for child in loop.children:
            claimed.add(child.header)

    return targets


def _live_ins(
    func: Function,
    loop: Loop,
    region: Sequence[str],
    ind: InductionInfo,
    chains: Chains,
) -> List[Reg]:
    """Registers read in the region but defined outside the loop."""
    region_set = set(region)
    defined_in_loop: Set[str] = set()
    for label in loop.blocks:
        for instr in func.blocks[label].instrs:
            if instr.dest is not None:
                defined_in_loop.add(instr.dest.name)

    seen: Dict[str, Reg] = {}
    for label in region:
        for instr in func.blocks[label].instrs:
            for reg in instr.uses():
                if reg.name == ind.reg.name:
                    continue
                if reg.name in defined_in_loop:
                    # defined inside the loop but outside the region (e.g. in
                    # the header) still counts as internal
                    continue
                seen.setdefault(reg.name, reg)
    return [seen[name] for name in sorted(seen)]

