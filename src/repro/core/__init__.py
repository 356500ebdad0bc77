"""repro.core — the paper's contribution: the RSkip transform, the two
prediction models (dynamic interpolation, approximate memoization), fuzzy
validation, context signatures, run-time management and offline training."""
from .acceptance import EPSILON, relative_difference, within_range
from .config import PAPER_ACCEPTABLE_RANGES, RSkipConfig
from .interpolation import (
    CutEvent,
    PhaseSlicer,
    Point,
    SimulationResult,
    linear_prediction,
    simulate,
    validate_phase,
)
from .memoization import (
    InputQuantizer,
    MemoTable,
    bit_tuning,
    build_memo_table,
    histogram_levels,
    uniform_levels,
)
from .signature import DEFAULT_BINS, QoSModel, histogram, make_signature
from .manager import (
    Element,
    LoopProfile,
    LoopRuntime,
    RskipRuntime,
    SkipStats,
)
from .rskip import (
    RskipApplication,
    RskipError,
    TargetLayout,
    apply_rskip,
)
from .serialize import (
    load_profiles,
    profile_from_dict,
    profile_to_dict,
    profiles_from_json,
    profiles_to_json,
    save_profiles,
)
from .temporal import TEMPORAL_CHARGE, TemporalPredictor
from .training import (
    TrainingReport,
    collect_traces,
    enable_recording,
    slope_changes_of,
    train_interpolation,
    train_profiles,
)

__all__ = [
    "EPSILON", "relative_difference", "within_range",
    "PAPER_ACCEPTABLE_RANGES", "RSkipConfig",
    "CutEvent", "PhaseSlicer", "Point", "SimulationResult",
    "linear_prediction", "simulate", "validate_phase",
    "InputQuantizer", "MemoTable",
    "bit_tuning", "build_memo_table", "histogram_levels", "uniform_levels",
    "DEFAULT_BINS", "QoSModel", "histogram", "make_signature",
    "Element", "LoopProfile", "LoopRuntime", "RskipRuntime", "SkipStats",
    "RskipApplication", "RskipError", "TargetLayout", "apply_rskip",
    "load_profiles", "profile_from_dict", "profile_to_dict",
    "profiles_from_json", "profiles_to_json", "save_profiles",
    "TEMPORAL_CHARGE", "TemporalPredictor",
    "TrainingReport", "collect_traces", "enable_recording",
    "slope_changes_of", "train_interpolation", "train_profiles",
]
