"""repro.difftest — generative differential testing of the IR stack.

A seeded fuzzer (:mod:`generator`) emits structured loop programs in the
paper's target shapes; differential oracles (:mod:`oracles`) check that
transform pipelines preserve fault-free semantics, that the textual form
is a print/parse fixpoint, and that the protection transforms uphold
their fault-masking contracts; a delta-debugging shrinker (:mod:`shrink`)
reduces failures to small reproducible ``.ir`` files; and the sharded
driver (:mod:`runner`) runs the whole thing behind ``repro difftest``.
"""
from .generator import (
    SHAPES,
    GeneratedProgram,
    generate,
    generate_module,
    generate_phased,
    mutate_function,
)
from .oracles import (
    CLEANUP_PASSES,
    PROTECTION_PASSES,
    ModuleWorkload,
    Violation,
    check_backend_equivalence,
    check_batch_equivalence,
    check_fault_metamorphic,
    check_incremental_equivalence,
    check_pipeline,
    check_roundtrip,
    execute_module,
    module_copy,
)
from .runner import DifftestReport, render_report, run_difftest
from .shrink import instruction_count, shrink_module

__all__ = [
    "SHAPES", "GeneratedProgram", "generate", "generate_module",
    "generate_phased", "mutate_function",
    "CLEANUP_PASSES", "PROTECTION_PASSES", "ModuleWorkload", "Violation",
    "check_backend_equivalence",
    "check_batch_equivalence",
    "check_fault_metamorphic", "check_incremental_equivalence",
    "check_pipeline", "check_roundtrip",
    "execute_module", "module_copy",
    "DifftestReport", "render_report", "run_difftest",
    "instruction_count", "shrink_module",
]
