"""Named IR passes and the pass manager that runs them.

This module owns the only scheme→transform tables in the repo:

* :data:`CLEANUP_PASSES` — semantics-preserving module passes
  (``dce``/``cse``/``licm``/``simplify``/``clone``), plain
  ``fn(module) -> result`` callables;
* :data:`PROTECTION_APPLIERS` — protection transforms
  (``swift``/``swift-r``/``rskip``/``replay``/``ckpt``) as context-aware
  appliers that record the intrinsics table and (for the runtime-managed
  families) the runtime application on a :class:`ProtectContext`;
* :data:`PROTECTIONS` — the historical ``fn(module) -> intrinsics dict``
  view of the appliers, kept for the difftest oracles.

:func:`run_pipeline` executes a named pass list in order with the
guarantees the compilation system needs: optional verifier runs between
passes (a broken pass is reported *by name*), one ``pass-run``
observability event per pass (name plus in/out instruction counts,
guarded by the zero-cost ``enabled()`` check), and per-pass wall-clock
spans that fold into the run manifest.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..core.config import RSkipConfig
from ..core.manager import LoopProfile
from ..core.protocol import apply_protocol
from ..core.rskip import RskipApplication, apply_rskip
from ..ir.module import Module
from ..ir.verifier import VerificationError, verify_module
from ..obs.events import PASS_RUN
from ..obs.events import emit as obs_emit
from ..obs.events import enabled as obs_enabled
from ..obs.events import span as obs_span
from ..runtime.errors import FaultDetectedError
from ..transforms.clone import duplicate_into_module
from ..transforms.cse import run_cse_module
from ..transforms.dce import run_dce_module
from ..transforms.licm import run_licm_module
from ..transforms.simplify import run_simplify_module
from ..transforms.swift import (
    ALL_SYNC_POINTS,
    DETECT_INTRINSIC,
    apply_swift,
    apply_swift_r,
)

#: The cleanup pipeline the driver runs before protection.
CLEANUP_PIPELINE = ("simplify", "licm", "cse", "dce")


def swift_detected(interp, args):
    """The linked SWIFT checker handler: abort the run on a mismatch."""
    raise FaultDetectedError("SWIFT detected a transient fault")


def _clone_pass(module: Module) -> object:
    """Clone main into a renamed sibling (exercises the renaming machinery;
    the clone is never called, so semantics must be untouched)."""
    if "main" in module.functions and "main.ck" not in module.functions:
        duplicate_into_module(module, "main", "main.ck")
    return None


#: Semantics-preserving cleanup passes, applied in place.
CLEANUP_PASSES: Dict[str, Callable[[Module], object]] = {
    "dce": run_dce_module,
    "cse": run_cse_module,
    "licm": run_licm_module,
    "simplify": run_simplify_module,
    "clone": _clone_pass,
}


@dataclass
class ProtectContext:
    """Inputs a protection pass may need and outputs it produces."""

    config: Optional[RSkipConfig] = None
    profiles: Optional[Dict[str, LoopProfile]] = None
    ar_overrides: Optional[Dict[str, float]] = None
    sync_points: Optional[Iterable[str]] = None
    intrinsics: Dict[str, object] = field(default_factory=dict)
    #: the runtime-managed families' one application handle (RSkip and
    #: REPLAY/CKPT alike: .layouts / .runtime / .intrinsics())
    application: Optional[RskipApplication] = None
    #: the resolved SchemeDescriptor (set by protect()); protocol passes
    #: read their cost knobs from its Protocol.  None in the compat path,
    #: where each family falls back to its bare-alias default point.
    descriptor: Optional[object] = None

    @property
    def effective_sync_points(self) -> Iterable[str]:
        return ALL_SYNC_POINTS if self.sync_points is None else self.sync_points


def _apply_swift_ctx(module: Module, ctx: ProtectContext) -> None:
    apply_swift(module, sync_points=ctx.effective_sync_points)
    ctx.intrinsics[DETECT_INTRINSIC] = swift_detected


def _apply_swift_r_ctx(module: Module, ctx: ProtectContext) -> None:
    apply_swift_r(module, sync_points=ctx.effective_sync_points)


def _apply_rskip_ctx(module: Module, ctx: ProtectContext) -> None:
    ctx.application = apply_rskip(
        module, ctx.config, ctx.profiles, ar_overrides=ctx.ar_overrides
    )
    ctx.intrinsics.update(ctx.application.intrinsics())


def protocol_kwargs(descriptor, pass_name: str) -> Dict[str, object]:
    """Runtime knobs for a protocol pass, read from the descriptor's
    :class:`~repro.pipeline.registry.Protocol` params.

    With no descriptor (the compat ``PROTECTIONS`` path) each family
    resolves its bare pass-name alias — ``replay`` is REPLAY1, the
    full-coverage point whose contract the unparameterized transform
    honours, and ``ckpt`` is the default CKPT point.
    """
    if descriptor is None:
        from .registry import get_scheme

        descriptor = get_scheme(pass_name)
    proto = descriptor.protocol
    if pass_name == "replay":
        return {
            "sample_period": int(proto.param("sample_period", 1.0)),
            "window": int(proto.param("window", 4.0)),
        }
    return {
        "interval": int(proto.param("interval", 8.0)),
        "predictor": bool(proto.param("predictor", 1.0)),
    }


def _apply_replay_ctx(module: Module, ctx: ProtectContext) -> None:
    ctx.application = apply_protocol(
        module, "replay", **protocol_kwargs(ctx.descriptor, "replay"))
    ctx.intrinsics.update(ctx.application.intrinsics())


def _apply_ckpt_ctx(module: Module, ctx: ProtectContext) -> None:
    ctx.application = apply_protocol(
        module, "ckpt", **protocol_kwargs(ctx.descriptor, "ckpt"))
    ctx.intrinsics.update(ctx.application.intrinsics())


#: Protection transforms: pass name -> context-aware in-place applier.
PROTECTION_APPLIERS: Dict[str, Callable[[Module, ProtectContext], None]] = {
    "swift": _apply_swift_ctx,
    "swift-r": _apply_swift_r_ctx,
    "rskip": _apply_rskip_ctx,
    "replay": _apply_replay_ctx,
    "ckpt": _apply_ckpt_ctx,
}


def _compat_protection(name: str) -> Callable[[Module], dict]:
    def apply(module: Module) -> dict:
        ctx = ProtectContext()
        PROTECTION_APPLIERS[name](module, ctx)
        return ctx.intrinsics

    apply.__name__ = f"apply_{name.replace('-', '_')}"
    return apply


#: Protection transforms in the historical ``fn(module) -> intrinsics``
#: shape the difftest oracles consume.
PROTECTIONS: Dict[str, Callable[[Module], dict]] = {
    name: _compat_protection(name) for name in PROTECTION_APPLIERS
}


def pass_names() -> tuple:
    """Every registered pass name (cleanups then protections)."""
    return tuple(CLEANUP_PASSES) + tuple(PROTECTION_APPLIERS)


class PassVerificationError(VerificationError):
    """The verifier rejected the module right after a named pass."""

    def __init__(self, pass_name: str, cause: VerificationError):
        super().__init__(
            f"verifier rejected module after pass {pass_name!r}: {cause}"
        )
        self.pass_name = pass_name


@dataclass
class PassRun:
    """One executed pass: name, result and module size before/after."""

    name: str
    instrs_in: int
    instrs_out: int
    result: object = None

    def to_dict(self) -> dict:
        data = {"name": self.name, "instrs_in": self.instrs_in,
                "instrs_out": self.instrs_out}
        if isinstance(self.result, int):
            data["result"] = self.result
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PassRun":
        return cls(data["name"], data["instrs_in"], data["instrs_out"],
                   data.get("result"))


def module_instr_count(module: Module) -> int:
    return sum(
        1 for func in module.functions.values() for _ in func.instructions()
    )


def emit_pass_run(name: str, instrs_in: int, instrs_out: int) -> None:
    """The ``pass-run`` event site (also replayed on artifact-cache hits,
    so traces are byte-identical whether or not the cache was warm)."""
    if obs_enabled():
        obs_emit(PASS_RUN, name=name, instrs_in=instrs_in,
                 instrs_out=instrs_out)


def run_pipeline(
    module: Module,
    passes: Sequence[str],
    *,
    verify: bool = True,
    context: Optional[ProtectContext] = None,
) -> List[PassRun]:
    """Run named *passes* over *module* in place, in order.

    With ``verify=True`` the IR verifier runs after every pass and a
    rejection is raised as :class:`PassVerificationError` naming the
    offending pass.  Each pass emits a ``pass-run`` event (when tracing
    is on) and times itself under a ``pass:<name>`` span.
    """
    ctx = context if context is not None else ProtectContext()
    runs: List[PassRun] = []
    for name in passes:
        cleanup = CLEANUP_PASSES.get(name)
        applier = None if cleanup is not None else PROTECTION_APPLIERS.get(name)
        if cleanup is None and applier is None:
            raise ValueError(
                f"unknown pass {name!r}; registered passes: "
                f"{', '.join(pass_names())}"
            )
        instrs_in = module_instr_count(module)
        with obs_span(f"pass:{name}"):
            result = cleanup(module) if cleanup is not None else applier(module, ctx)
        instrs_out = module_instr_count(module)
        emit_pass_run(name, instrs_in, instrs_out)
        runs.append(PassRun(name, instrs_in, instrs_out, result))
        if verify:
            try:
                verify_module(module)
            except PassVerificationError:
                raise
            except VerificationError as exc:
                raise PassVerificationError(name, exc) from exc
    return runs
