"""repro.runtime — execution substrate: flat memory, the IR interpreter,
the superscalar timing model and the SEU fault injector."""
from .errors import (
    CoreDumpError,
    FaultDetectedError,
    HangError,
    SegfaultError,
    TrapError,
)
from .memory import DEFAULT_SIZE, Memory
from .outcomes import Outcome, classify_output, outputs_equal
from .energy import ENERGY, EnergyEstimate, LEAKAGE_PER_CYCLE, estimate_energy
from .scheduler import TimingModel
from .faults import (
    ADVERSARIAL_KIND_WEIGHTS,
    CONTROL_KINDS,
    DEFAULT_KIND_WEIGHTS,
    FAULT_KINDS,
    FaultPlan,
    Region,
    SKIP_KINDS,
    flip_float,
    flip_int,
    flip_value,
    random_plan,
)
from .interpreter import (
    DEFAULT_MAX_STEPS,
    Interpreter,
    IntrinsicFn,
    MAX_CALL_DEPTH,
    OPCODES,
    OPERAND_ARITY,
    RunResult,
)
from .compiler import (
    CompiledExecutor,
    CompiledModule,
    clear_compile_cache,
    compile_module,
    module_fingerprint,
)
from .batch import BatchExecutor
from .prefix import TrialRow
from .backend import (
    BACKENDS,
    default_backend,
    make_executor,
    set_default_backend,
)

__all__ = [
    "CoreDumpError", "FaultDetectedError", "HangError", "SegfaultError", "TrapError",
    "DEFAULT_SIZE", "Memory",
    "Outcome", "classify_output", "outputs_equal",
    "ENERGY", "EnergyEstimate", "LEAKAGE_PER_CYCLE", "estimate_energy",
    "TimingModel",
    "ADVERSARIAL_KIND_WEIGHTS", "CONTROL_KINDS", "DEFAULT_KIND_WEIGHTS",
    "FAULT_KINDS", "FaultPlan", "Region", "SKIP_KINDS",
    "flip_float", "flip_int", "flip_value", "random_plan",
    "DEFAULT_MAX_STEPS", "Interpreter", "IntrinsicFn", "MAX_CALL_DEPTH",
    "OPCODES", "OPERAND_ARITY", "RunResult",
    "CompiledExecutor", "CompiledModule", "clear_compile_cache",
    "compile_module", "module_fingerprint",
    "BatchExecutor", "TrialRow",
    "BACKENDS", "default_backend", "make_executor", "set_default_backend",
]
