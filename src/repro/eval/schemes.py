"""Protection schemes under evaluation.

The evaluation compares (Figure 7/9): ``UNSAFE`` (no protection),
``SWIFT`` (duplication, detection only — extra, not in the paper's
figures), ``SWIFT-R`` (the baseline: triplication + voting recovery) and
``RSkip`` at AR20/AR50/AR80/AR100.

Scheme names, aliases and pass lists live in
:mod:`repro.pipeline.registry`; this module re-exports the evaluation's
historical vocabulary and adapts workload objects onto
:func:`repro.pipeline.protect`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional

from ..analysis.patterns import TargetLoop, detect_target_loops
from ..core.config import RSkipConfig
from ..core.manager import LoopProfile
from ..core.rskip import RskipApplication
from ..ir.module import Module
from ..pipeline import protect
from ..pipeline.registry import (  # noqa: F401  (re-exported vocabulary)
    PAPER_SCHEMES,
    SWIFT,
    SWIFT_R,
    UNSAFE,
    rskip_label,
)
from ..runtime.compiler import CompiledModule, compile_module
from ..runtime.faults import Region
from ..workloads.base import Workload


@dataclass
class PreparedProgram:
    """A workload module compiled under one protection scheme."""

    scheme: str
    module: Module
    intrinsics: Dict[str, object] = field(default_factory=dict)
    #: the RskipApplication handle of a runtime-managed scheme (RSkip and
    #: REPLAY/CKPT alike), None for stateless schemes
    application: Optional[RskipApplication] = None
    #: target loops of the *original* module (same block labels — builds
    #: are deterministic), for fault-region construction
    original_targets: List[TargetLoop] = field(default_factory=list)
    main: str = "main"
    #: when set, :func:`fault_region` returns this region verbatim —
    #: used by programs with no detected target loops (difftest modules
    #: campaigned whole-program, oracle O7)
    region_override: Optional[Region] = None

    @cached_property
    def compiled(self) -> CompiledModule:
        """The module's compiled form, looked up once per program (a
        :func:`compile_module` cache hit still prints and hashes it)."""
        return compile_module(self.module)

    @property
    def runtime(self) -> Optional[object]:
        """The scheme's stateful runtime (a
        :class:`~repro.core.manager.LoopRuntimes`: reset(), fork(),
        total_stats(), stats_delta(), intrinsics())."""
        return self.application.runtime if self.application else None


def prepare(
    workload: Workload,
    scheme: str,
    config: Optional[RSkipConfig] = None,
    profiles: Optional[Dict[str, LoopProfile]] = None,
) -> PreparedProgram:
    """Build the workload's module and apply the requested scheme.

    *scheme* accepts any registry spelling (``"AR20"``, ``"swift-r"``,
    ``"rskip"`` — the last at *config*'s acceptable range); anything else
    raises ``ValueError``.  Protection goes through the pipeline's
    artifact cache, so preparing the same workload × scheme twice reuses
    the transformed module text (the run-time manager is always rebuilt
    fresh).
    """
    module = workload.build()
    original_targets = detect_target_loops(
        module.get_function(workload.main), module)
    program = protect(module, scheme, config=config, profiles=profiles)
    return PreparedProgram(
        program.scheme, program.module, program.intrinsics,
        program.application, original_targets, workload.main,
    )


def fault_region(prepared: PreparedProgram) -> Region:
    """The paper's injection discipline: faults land only inside the
    detected loops (expanded through transform provenance) and the
    functions implementing their computation."""
    if prepared.region_override is not None:
        return prepared.region_override
    loop_labels = set()
    funcs = set()
    for target in prepared.original_targets:
        loop_labels |= target.loop.blocks
        if target.callee is not None:
            funcs.add(target.callee)

    app = prepared.application
    if app is not None:
        for layout in app.layouts:
            funcs.update(layout.region_funcs)

    blocks = set()
    main_func = prepared.module.get_function(prepared.main)
    provenance = main_func.attrs.get("provenance", {})
    for label in main_func.blocks:
        if provenance.get(label, label) in loop_labels:
            blocks.add((prepared.main, label))
    return Region(funcs=funcs, blocks=blocks)
