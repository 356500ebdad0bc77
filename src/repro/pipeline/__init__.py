"""Scheme registry, pass pipeline and artifact cache (DESIGN.md §7).

The single source of truth for protection schemes: what they are called
(:mod:`.registry`), what passes they run (:mod:`.passes`), and how their
products are memoized (:mod:`.cache`, :mod:`.protect`).
"""
from .cache import (
    ArtifactCache,
    artifact_key,
    cache_dir,
    cache_mode,
    get_cache,
    reset_cache,
)
from .passes import (
    CLEANUP_PASSES,
    CLEANUP_PIPELINE,
    PROTECTION_PASSES,
    PassRun,
    PassVerificationError,
    module_instr_count,
    pass_names,
    run_pipeline,
)
from .protect import (
    ProtectedProgram,
    protect,
    selfcheck_byte_identity,
    selfcheck_schemes,
)
from .registry import (
    CKPT_DEFAULT,
    DRIVER_SCHEMES,
    PAPER_SCHEMES,
    REPLAY_DEFAULT,
    SWIFT,
    SWIFT_R,
    UNSAFE,
    Protocol,
    SchemeDescriptor,
    all_descriptors,
    alias_help,
    canonical_scheme,
    default_campaign_schemes,
    get_scheme,
    protection_pass_schemes,
    rskip_label,
    scheme_names,
)

__all__ = [
    "ArtifactCache", "artifact_key", "cache_dir", "cache_mode",
    "get_cache", "reset_cache",
    "CLEANUP_PASSES", "CLEANUP_PIPELINE", "PROTECTION_PASSES", "PassRun",
    "PassVerificationError", "module_instr_count", "pass_names",
    "run_pipeline",
    "ProtectedProgram", "protect", "selfcheck_byte_identity",
    "selfcheck_schemes",
    "CKPT_DEFAULT", "DRIVER_SCHEMES", "PAPER_SCHEMES", "REPLAY_DEFAULT",
    "SWIFT", "SWIFT_R", "UNSAFE", "Protocol", "SchemeDescriptor",
    "all_descriptors", "alias_help", "canonical_scheme",
    "default_campaign_schemes", "get_scheme", "protection_pass_schemes",
    "rskip_label", "scheme_names",
]
