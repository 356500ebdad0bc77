"""repro.analysis — static analyses over the IR: CFG, dominators, natural
loops, def-use chains, liveness, cost estimation and the RSkip target-loop
pattern detector."""
from .cfg import CFG
from .dominators import compute_idom, dominates
from .loops import InductionInfo, Loop, find_induction, find_loops, loop_depth_map
from .defuse import Chains, compute_chains, compute_slice, defining_instr
from .liveness import Liveness
from .costmodel import DEFAULT_TRIP, LATENCY, estimate_function_cost, instr_cost
from .patterns import (
    MIN_CALL_COST,
    MIN_TARGET_COST,
    PatternKind,
    TargetLoop,
    detect_target_loops,
)

__all__ = [
    "CFG",
    "compute_idom", "dominates",
    "InductionInfo", "Loop", "find_induction", "find_loops", "loop_depth_map",
    "Chains", "compute_chains", "compute_slice", "defining_instr",
    "Liveness",
    "DEFAULT_TRIP", "LATENCY", "estimate_function_cost", "instr_cost",
    "MIN_CALL_COST", "MIN_TARGET_COST", "PatternKind", "TargetLoop",
    "detect_target_loops",
]
