"""Scheme application through the registry, pass manager and cache.

:func:`protect` is the one routine every layer (driver, evaluation
harness, campaign workers, difftest oracles, benchmarks) goes through to
turn an unprotected module into a protected one.  It resolves the
scheme descriptor, runs the descriptor's pass list via
:func:`repro.pipeline.passes.run_pipeline` — pure IR surgery, which for
the protected-loop families also yields the target layouts — and then
hands the module and layouts to :func:`build_runtime`, the one place a
scheme's intrinsics table and (stateful) runtime application are made.
When caching is enabled the surgery is memoized, keyed by module
fingerprint × scheme descriptor hash.

Cache-hit semantics are engineered for byte-identity with the uncached
path:

* the protected module is stored as printed IR text; a hit parses it
  back (memoized per key — later hits take a structural
  :meth:`Module.clone` of the parsed template), so ``format_module`` of
  a cached module equals the stored text exactly (the difftest O2
  fixpoint oracle pins this property, and a clone prints exactly like
  its parse);
* function attributes (provenance, ``protected``, pragmas) are not part
  of the textual IR, so they are stored alongside and re-applied;
* target layouts are stored too, and a hit calls the same
  :func:`build_runtime` a miss does — the runtime is never cached, it is
  rebuilt fresh with the *caller's* config and profiles and the
  descriptor's protocol knobs;
* the per-pass ``pass-run`` events are replayed from the stored counts,
  so observability traces do not depend on cache warmth (pinned by the
  campaign trace-equality tests).  Only the wall-clock spans differ —
  those live in the manifest channel, which is explicitly
  non-deterministic.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..core.config import RSkipConfig
from ..core.manager import LoopProfile
from ..core.protocol import rebuild_protocol_application
from ..core.rskip import RskipApplication, TargetLayout, rebuild_application
from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import format_module
from ..ir.verifier import verify_module
from ..runtime.errors import FaultDetectedError
from ..transforms.swift import DETECT_INTRINSIC
from .cache import ArtifactCache, artifact_key, get_cache
from .passes import (
    CLEANUP_PASSES,
    CLEANUP_PIPELINE,
    PROTECTION_PASSES,
    PassRun,
    emit_pass_run,
    run_pipeline,
)
from .registry import SchemeDescriptor, get_scheme, protection_pass_schemes

#: Cleanup pass name -> the driver's historical reporting key.
_OPT_REPORT_NAMES = {"simplify": "constfold"}


def swift_detected(interp, args):
    """The linked SWIFT checker handler: abort the run on a mismatch."""
    raise FaultDetectedError("SWIFT detected a transient fault")


def build_runtime(
    descriptor: SchemeDescriptor,
    module: Module,
    layouts: Optional[List[TargetLayout]],
    config: Optional[RSkipConfig],
    profiles: Optional[Dict[str, LoopProfile]],
    ar_overrides: Optional[Dict[str, float]],
) -> Tuple[Dict[str, object], Optional[RskipApplication]]:
    """The run-time side of a protected *module*: its intrinsics table
    and, for the protected-loop families (*layouts* not None), a fresh
    application handle.  RSkip's manager takes the caller's
    config/profiles/pragmas; REPLAY/CKPT take their knobs from the
    descriptor's protocol params, which the registry names after
    :func:`~repro.core.protocol.rebuild_protocol_application`'s
    keywords (all integer-valued)."""
    if "swift" in descriptor.passes:
        return {DETECT_INTRINSIC: swift_detected}, None
    if layouts is None:
        return {}, None
    if descriptor.is_rskip:
        application = rebuild_application(
            module, layouts, config, profiles, ar_overrides)
    else:
        knobs = {name: int(value) for name, value in descriptor.protocol.params}
        application = rebuild_protocol_application(
            module, layouts, descriptor.passes[-1], **knobs)
    return application.intrinsics(), application


@dataclass
class ProtectedProgram:
    """One scheme applied to one module, plus everything run time needs."""

    scheme: str  # canonical name, e.g. "AR20"
    descriptor: SchemeDescriptor
    module: Module
    intrinsics: Dict[str, object] = field(default_factory=dict)
    #: the runtime-managed families' application handle (RSkip and
    #: REPLAY/CKPT share it), None for stateless schemes
    application: Optional[RskipApplication] = None
    pass_runs: List[PassRun] = field(default_factory=list)
    optimizations: Dict[str, int] = field(default_factory=dict)
    cache_hit: bool = False


def _optimizations_from_runs(runs: List[PassRun]) -> Dict[str, int]:
    return {
        _OPT_REPORT_NAMES.get(run.name, run.name): run.result
        for run in runs
        if run.name in CLEANUP_PASSES and run.name != "clone"
    }


def _collect_attrs(module: Module) -> Dict[str, dict]:
    return {
        name: dict(func.attrs)
        for name, func in module.functions.items()
        if func.attrs
    }


def _apply_attrs(module: Module, attrs: Dict[str, dict]) -> None:
    for name, values in attrs.items():
        func = module.functions.get(name)
        if func is not None:
            func.attrs.update(values)


def _module_key(
    fingerprint: str,
    descriptor: SchemeDescriptor,
    passes: Iterable[str],
    sync_points: Optional[Iterable[str]],
) -> str:
    sync = "all" if sync_points is None else sorted(sync_points)
    return artifact_key(
        "protected-module", fingerprint, descriptor.descriptor_hash(),
        list(passes), sync,
    )


def protect(
    module: Module,
    scheme: Union[str, SchemeDescriptor],
    *,
    config: Optional[RSkipConfig] = None,
    profiles: Optional[Dict[str, LoopProfile]] = None,
    optimize: bool = False,
    verify: bool = False,
    sync_points: Optional[Iterable[str]] = None,
    ar_overrides: Optional[Dict[str, float]] = None,
    use_cache: bool = True,
    cache: Optional[ArtifactCache] = None,
) -> ProtectedProgram:
    """Apply *scheme* (any accepted spelling) to *module*.

    On a cache miss (or with ``use_cache=False``) the module is
    transformed **in place** and returned; on a hit a freshly parsed,
    byte-identical module is returned and the input stays untouched.
    Callers relying on in-place mutation (the driver's documented
    contract) must pass ``use_cache=False``.  An explicit *cache* object
    overrides the environment-configured one (tests, selfcheck).

    ``config``/``profiles``/``ar_overrides`` shape only the run-time
    manager, never the module surgery, so they are deliberately not part
    of the cache key — the runtime is rebuilt fresh on every call.
    """
    descriptor = get_scheme(scheme, config)
    if descriptor.is_rskip:
        config = (config or RSkipConfig()).with_ar(descriptor.acceptable_range)
    passes = (tuple(CLEANUP_PIPELINE) if optimize else ()) + descriptor.passes

    if not passes:
        return ProtectedProgram(descriptor.name, descriptor, module)

    if cache is None:
        cache = get_cache() if use_cache else None
    key = payload = None
    if cache is not None:
        from ..runtime.compiler import module_fingerprint

        key = _module_key(
            module_fingerprint(module), descriptor, passes, sync_points)
        payload = cache.get(key)

    if payload is not None:
        module = _module_from_text(payload["text"], key)
        _apply_attrs(module, payload["attrs"])
        layouts = payload["layouts"]
        if layouts is not None:
            layouts = [TargetLayout.from_dict(d) for d in layouts]
        runs = [PassRun.from_dict(d) for d in payload["pass_runs"]]
        for run in runs:
            emit_pass_run(run.name, run.instrs_in, run.instrs_out)
    else:
        runs = run_pipeline(
            module, passes, verify=verify, sync_points=sync_points)
        layouts = next(
            (run.result for run in runs if run.name in PROTECTION_PASSES),
            None)
        if cache is not None:
            cache.put(key, {
                "kind": "protected-module",
                "scheme": descriptor.name,
                "text": format_module(module),
                "attrs": _collect_attrs(module),
                "layouts": (None if layouts is None
                            else [layout.to_dict() for layout in layouts]),
                "pass_runs": [run.to_dict() for run in runs],
            })

    intrinsics, application = build_runtime(
        descriptor, module, layouts, config, profiles, ar_overrides)
    return ProtectedProgram(
        scheme=descriptor.name,
        descriptor=descriptor,
        module=module,
        intrinsics=intrinsics,
        application=application,
        pass_runs=runs,
        optimizations=_optimizations_from_runs(runs),
        cache_hit=payload is not None,
    )


#: Parsed-module templates per cache key: re-parsing the stored IR text
#: dominates hit cost, so each key is parsed once per process and later
#: hits take a structural :meth:`Module.clone` instead (byte-identical —
#: the clone prints exactly like its parse).  Keys are content-addressed
#: (fingerprint × descriptor), so entries can never go stale.
_TEMPLATE_CAP = 32
_templates: "OrderedDict[str, Module]" = OrderedDict()
#: serve executor threads hit the template LRU concurrently; parsing
#: happens outside the lock (a duplicate parse is wasted work, not a
#: correctness problem — first insert wins), reorder/evict inside it
_templates_lock = threading.Lock()


def _module_from_text(text: str, key: Optional[str]) -> Module:
    if key is None:
        return parse_module(text)
    with _templates_lock:
        template = _templates.get(key)
        if template is not None:
            _templates.move_to_end(key)
    if template is None:
        parsed = parse_module(text)
        with _templates_lock:
            template = _templates.setdefault(key, parsed)
            _templates.move_to_end(key)
            while len(_templates) > _TEMPLATE_CAP:
                _templates.popitem(last=False)
    return template.clone()


def selfcheck_schemes() -> Tuple[str, ...]:
    """One scheme per registered protection pass (each pass name's
    default point), so a self-check exercises every family's hit path."""
    return tuple(
        get_scheme(name).name for name in protection_pass_schemes() if name)


def selfcheck_byte_identity(
    text: str,
    schemes: Optional[Iterable[Union[str, SchemeDescriptor]]] = None,
    optimize: bool = True,
) -> List[str]:
    """Protect the program in *text* with the cache bypassed, then again
    through a miss and a hit, and compare the printed modules bytewise,
    for each of *schemes* (default :func:`selfcheck_schemes`).

    Returns human-readable mismatch descriptions (empty == all equal).
    Used by ``repro cache-check`` and ``make verify``.
    """
    problems: List[str] = []
    for scheme in schemes or selfcheck_schemes():
        descriptor = get_scheme(scheme)

        def run_once(**kwargs) -> str:
            program = protect(
                parse_module(text), descriptor, optimize=optimize, **kwargs)
            verify_module(program.module)
            return format_module(program.module)

        baseline = run_once(use_cache=False)
        if run_once(use_cache=False) != baseline:
            problems.append(
                f"{descriptor.name}: uncached protection is nondeterministic")
            continue

        scratch = ArtifactCache()
        if run_once(cache=scratch) != baseline:
            problems.append(
                f"{descriptor.name}: cache-miss module differs from uncached")
        if scratch.puts != 1:
            problems.append(
                f"{descriptor.name}: expected one cache fill, saw "
                f"{scratch.puts}")
        if run_once(cache=scratch) != baseline:
            problems.append(
                f"{descriptor.name}: cache-hit module differs from uncached")
        if scratch.hits != 1:
            problems.append(
                f"{descriptor.name}: expected a cache hit on re-protection, "
                f"saw {scratch.hits} hits / {scratch.misses} misses")
    return problems
