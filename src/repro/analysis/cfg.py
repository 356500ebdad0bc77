"""Control-flow graph construction and traversals."""
from __future__ import annotations

from typing import Dict, List, Set

from ..ir.function import Function


class CFG:
    """Predecessor/successor maps plus standard traversal orders."""

    def __init__(self, func: Function):
        self.func = func
        self.succs: Dict[str, List[str]] = {}
        self.preds: Dict[str, List[str]] = {label: [] for label in func.blocks}
        for label in func.block_order():
            succs = func.blocks[label].successors()
            self.succs[label] = succs
            for s in succs:
                if s in self.preds:
                    self.preds[s].append(label)
        self.entry = func.block_order()[0]

    def postorder(self) -> List[str]:
        """Postorder over reachable blocks (iterative DFS)."""
        seen: Set[str] = set()
        order: List[str] = []
        stack: List[tuple] = [(self.entry, iter(self.succs.get(self.entry, ())))]
        seen.add(self.entry)
        while stack:
            label, it = stack[-1]
            advanced = False
            for succ in it:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(self.succs.get(succ, ()))))
                    advanced = True
                    break
            if not advanced:
                order.append(label)
                stack.pop()
        return order

    def reverse_postorder(self) -> List[str]:
        return list(reversed(self.postorder()))

    def back_edges(self, idom: Dict[str, str]) -> List[tuple]:
        """(tail, head) edges where head dominates tail (natural-loop back
        edges); *idom* comes from :func:`repro.analysis.dominators.compute_idom`."""
        from .dominators import dominates

        edges = []
        for tail, succs in self.succs.items():
            for head in succs:
                if dominates(idom, head, tail):
                    edges.append((tail, head))
        return edges
