"""Def-use chains over the register machine.

Because the IR is not SSA a register may have several definition sites;
the chains record every (block, index) pair.  The paper's compiler performs
"a thorough static analysis (e.g., def-use chain)" to find optimization
candidates — this module is that substrate.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..ir.function import Function
from ..ir.instructions import Instr
from ..ir.values import Reg

Site = Tuple[str, int]  # (block label, instruction index)


@dataclass
class Chains:
    """Definition and use sites for every register of a function."""

    defs: Dict[str, List[Site]] = field(default_factory=dict)
    uses: Dict[str, List[Site]] = field(default_factory=dict)

    def def_sites(self, reg: str) -> List[Site]:
        return self.defs.get(reg, [])



def compute_chains(func: Function) -> Chains:
    chains = Chains()
    for label in func.block_order():
        for idx, instr in enumerate(func.blocks[label].instrs):
            site = (label, idx)
            if instr.dest is not None:
                chains.defs.setdefault(instr.dest.name, []).append(site)
            for reg in instr.uses():
                chains.uses.setdefault(reg.name, []).append(site)
    return chains


def defining_instr(func: Function, site: Site) -> Instr:
    label, idx = site
    return func.blocks[label].instrs[idx]


def compute_slice(
    func: Function,
    root: Reg,
    within: Optional[Set[str]] = None,
    chains: Optional[Chains] = None,
) -> List[Site]:
    """Backward slice: definition sites (transitively) feeding *root*.

    If *within* is given, the walk stays inside those blocks — registers
    defined outside are treated as live-ins of the slice.  Sites are
    returned in program order (block order, then index).
    """
    if chains is None:
        chains = compute_chains(func)
    wanted: Set[str] = {root.name}
    sites: Set[Site] = set()
    changed = True
    while changed:
        changed = False
        for name in list(wanted):
            for site in chains.def_sites(name):
                if within is not None and site[0] not in within:
                    continue
                if site in sites:
                    continue
                sites.add(site)
                changed = True
                instr = defining_instr(func, site)
                for reg in instr.uses():
                    if reg.name not in wanted:
                        wanted.add(reg.name)

    order = {label: i for i, label in enumerate(func.block_order())}
    return sorted(sites, key=lambda s: (order[s[0]], s[1]))
