"""repro.transforms — protection and cleanup transforms over the IR:
function cloning, DCE, constant folding, and the SWIFT /
SWIFT-R instruction-duplication baselines."""
from .clone import clone_function, duplicate_into_module, rename_all_registers
from .dce import run_dce, run_dce_module
from .simplify import run_constfold, run_simplify_module
from .licm import hoist_loop, run_licm, run_licm_module
from .cse import run_cse, run_cse_block, run_cse_module
from .swift import (
    ALL_SYNC_POINTS,
    DETECT_INTRINSIC,
    ProtectionReport,
    apply_swift,
    apply_swift_r,
    protect_function,
)

__all__ = [
    "clone_function", "duplicate_into_module", "rename_all_registers",
    "run_dce", "run_dce_module",
    "run_constfold", "run_simplify_module",
    "hoist_loop", "run_licm", "run_licm_module",
    "run_cse", "run_cse_block", "run_cse_module",
    "ALL_SYNC_POINTS", "DETECT_INTRINSIC", "ProtectionReport",
    "apply_swift", "apply_swift_r", "protect_function",
]
