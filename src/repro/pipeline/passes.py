"""Named IR passes and the pass manager that runs them.

This module owns the only pass-name→transform tables in the repo.  Every
pass is pure IR surgery; none of them builds a run-time manager:

* :data:`CLEANUP_PASSES` — semantics-preserving module passes
  (``dce``/``cse``/``licm``/``simplify``/``clone``), plain
  ``fn(module) -> result`` callables;
* :data:`PROTECTION_PASSES` — protection transforms
  (``swift``/``swift-r``/``rskip``/``replay``/``ckpt``),
  ``fn(module, sync_points) -> layouts``: the protected-loop families
  (``rskip``/``replay``/``ckpt``) return their
  :class:`~repro.core.rskip.TargetLayout` list, SWIFT/SWIFT-R return
  None.  :func:`repro.pipeline.protect.build_runtime` turns a scheme's
  layouts into its intrinsics table and runtime.

:func:`run_pipeline` executes a named pass list in order with the
guarantees the compilation system needs: optional verifier runs between
passes (a broken pass is reported *by name*), one ``pass-run``
observability event per pass (name plus in/out instruction counts,
guarded by the zero-cost ``enabled()`` check), and per-pass wall-clock
spans that fold into the run manifest.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..core.rskip import TargetLayout, transform_loops, transform_rskip
from ..ir.module import Module
from ..ir.verifier import VerificationError, verify_module
from ..obs.events import PASS_RUN
from ..obs.events import emit as obs_emit
from ..obs.events import enabled as obs_enabled
from ..obs.events import span as obs_span
from ..transforms.clone import duplicate_into_module
from ..transforms.cse import run_cse_module
from ..transforms.dce import run_dce_module
from ..transforms.licm import run_licm_module
from ..transforms.simplify import run_simplify_module
from ..transforms.swift import ALL_SYNC_POINTS, apply_swift, apply_swift_r

#: The cleanup pipeline the driver runs before protection.
CLEANUP_PIPELINE = ("simplify", "licm", "cse", "dce")


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


def _swift_pass(module: Module, sync_points: Iterable[str]) -> None:
    apply_swift(module, sync_points=sync_points)


def _swift_r_pass(module: Module, sync_points: Iterable[str]) -> None:
    apply_swift_r(module, sync_points=sync_points)


#: Protection transforms: pass name -> ``fn(module, sync_points)``,
#: applied in place; the protected-loop families return their layouts,
#: everything else None (the SWIFT wrappers drop the per-function
#: reports, so a pass result that is not None is always a layout list).
PROTECTION_PASSES: Dict[
    str, Callable[[Module, Iterable[str]], Optional[List[TargetLayout]]]
] = {
    "swift": _swift_pass,
    "swift-r": _swift_r_pass,
    "rskip": lambda module, _sync: transform_rskip(module),
    "replay": lambda module, _sync: transform_loops(module, "replay"),
    "ckpt": lambda module, _sync: transform_loops(module, "ckpt"),
}


def pass_names() -> tuple:
    """Every registered pass name (cleanups then protections)."""
    return tuple(CLEANUP_PASSES) + tuple(PROTECTION_PASSES)


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
    sync_points: Optional[Iterable[str]] = None,
) -> List[PassRun]:
    """Run named *passes* over *module* in place, in order.

    With ``verify=True`` the IR verifier runs after every pass and a
    rejection is raised as :class:`PassVerificationError` naming the
    offending pass.  Each pass emits a ``pass-run`` event (when tracing
    is on) and times itself under a ``pass:<name>`` span.  The SWIFT
    passes check at *sync_points* (default: all of them); each
    :class:`PassRun` carries its pass's return value (cleanup counts,
    protected-loop layouts).
    """
    sync = ALL_SYNC_POINTS if sync_points is None else sync_points
    runs: List[PassRun] = []
    for name in passes:
        cleanup = CLEANUP_PASSES.get(name)
        protection = None if cleanup is not None else PROTECTION_PASSES.get(name)
        if cleanup is None and protection is None:
            raise ValueError(
                f"unknown pass {name!r}; registered passes: "
                f"{', '.join(pass_names())}"
            )
        instrs_in = module_instr_count(module)
        with obs_span(f"pass:{name}"):
            result = (cleanup(module) if cleanup is not None
                      else protection(module, sync))
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
