"""Dominator analysis (Cooper–Harvey–Kennedy iterative algorithm)."""
from __future__ import annotations

from typing import Dict, Optional

from .cfg import CFG


def compute_idom(cfg: CFG) -> Dict[str, str]:
    """Immediate dominators for all reachable blocks.

    The entry maps to itself.  Unreachable blocks are absent from the map.
    """
    rpo = cfg.reverse_postorder()
    index = {label: i for i, label in enumerate(rpo)}
    idom: Dict[str, Optional[str]] = {label: None for label in rpo}
    idom[cfg.entry] = cfg.entry

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for label in rpo:
            if label == cfg.entry:
                continue
            processed = [p for p in cfg.preds[label] if p in index and idom[p] is not None]
            if not processed:
                continue
            new_idom = processed[0]
            for p in processed[1:]:
                new_idom = intersect(p, new_idom)
            if idom[label] != new_idom:
                idom[label] = new_idom
                changed = True
    return {k: v for k, v in idom.items() if v is not None}


def dominates(idom: Dict[str, str], a: str, b: str) -> bool:
    """True if block *a* dominates block *b* under the given idom map."""
    if a == b:
        return True
    runner = b
    while runner != idom.get(runner):
        runner = idom.get(runner)
        if runner is None:
            return False
        if runner == a:
            return True
    return False

