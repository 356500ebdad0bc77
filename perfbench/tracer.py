"""Per-layer tracing from outside the program.

The tracer wraps the functions through which a campaign enters each
layer, patched where the caller looks the name up (a module global for
imported functions, the class for methods), and records self time and
counts per layer.  Nothing inside ``src/`` changes; ``remove()`` puts
every original back.

Self time: each wrapped call's duration minus the durations of the
wrapped calls it made.  Work outside every wrapper is charged to the op
itself (``Tracer.close_ops``), so a window's self times add up to its op
time.

Metrics accumulate into a *scope* -- one per set-up repetition and one
for the timed window; outside a scope nothing is recorded.
"""
from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import bench  # noqa: F401  (puts the program on sys.path)
from repro.core.manager import RskipRuntime
from repro.eval import campaign_engine, fault_campaign, harness, incremental, schemes
from repro.eval.incremental import SectionStore
from repro.pipeline.cache import get_cache
from repro.runtime.batch import BatchExecutor
from repro.runtime.compiler import CompiledExecutor
from repro.runtime.interpreter import Interpreter
from repro.runtime.outcomes import Outcome

# -- metric catalogue ---------------------------------------------------------
#: (name, unit, better) of every layer metric, in print order.  The timed
#: window reports them under these names; set-up repeats the ones in
#: SETUP_METRICS with a ``setup.`` prefix.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.build_ms", "ms", "lower"),
    ("pipeline.protect_ms", "ms", "lower"),
    ("pipeline.cache_hits", "count", "higher"),
    ("pipeline.cache_misses", "count", "lower"),
    ("core.training.train_ms", "ms", "lower"),
    ("eval.fault_campaign.context_ms", "ms", "lower"),
    ("eval.schemes.prepare_calls", "count", "lower"),
    ("eval.schemes.prepare_ms", "ms", "lower"),
    ("runtime.batch.runs", "count", "lower"),
    ("runtime.batch.lanes", "count", "lower"),
    ("runtime.batch.run_ms", "ms", "lower"),
    ("runtime.interpreter.runs", "count", "lower"),
    ("runtime.interpreter.steps", "count", "lower"),
    ("runtime.interpreter.run_ms", "ms", "lower"),
    ("runtime.compiler.runs", "count", "lower"),
    ("runtime.compiler.run_ms", "ms", "lower"),
    ("core.manager.resets", "count", "lower"),
    ("core.manager.reset_ms", "ms", "lower"),
    ("runtime.faults.plan_ms", "ms", "lower"),
    ("runtime.outcomes.classify_ms", "ms", "lower"),
    ("eval.fault_campaign.block_ms", "ms", "lower"),
    ("eval.fault_campaign.tally_ms", "ms", "lower"),
    ("trials.executed", "count", "lower"),
    ("trials.hang", "count", "lower"),
    ("trials.hang_share", "ratio", "lower"),
    ("eval.campaign_engine.checkpoint_saves", "count", "lower"),
    ("eval.campaign_engine.checkpoint_bytes", "bytes", "lower"),
    ("eval.campaign_engine.checkpoint_ms", "ms", "lower"),
    ("eval.campaign_engine.self_ms", "ms", "lower"),
    ("eval.sections.partition_ms", "ms", "lower"),
    ("eval.incremental.store_gets", "count", "lower"),
    ("eval.incremental.store_hits", "count", "higher"),
    ("eval.incremental.store_puts", "count", "lower"),
    ("eval.incremental.store_ms", "ms", "lower"),
    ("eval.incremental.reuse_ratio", "ratio", "higher"),
    ("eval.incremental.self_ms", "ms", "lower"),
)

#: layer metrics a set-up also reports (``setup.<name>``); ``setup.other_ms``
#: is set-up time outside every wrapped layer
SETUP_METRICS = tuple(
    name for name, unit, _ in LAYER_METRICS
    if unit in ("ms", "count") and not name.endswith("self_ms")
) + ("other_ms",)

#: the layer charged with op time spent outside every wrapper
ROOT_LAYER = {
    "campaign-ref": "eval.campaign_engine.self_ms",
    "campaign-batch": "eval.campaign_engine.self_ms",
    "recampaign": "eval.incremental.self_ms",
}


# -- counters fed from wrapped calls -------------------------------------------
def _steps(add, args, result, before):
    add("runtime.interpreter.steps", args[0].steps)


def _lanes(add, args, result, before):
    add("runtime.batch.lanes", args[0].n_lanes)


def _checkpoint_bytes(add, args, result, before):
    add("eval.campaign_engine.checkpoint_bytes", os.path.getsize(args[0]))


def _store_hit(add, args, result, before):
    add("eval.incremental.store_hits", result is not None)


def _hangs_before(args):
    return args[0].tallies[Outcome.HANG]


def _hangs(add, args, result, before):
    add("trials.executed", 1)
    add("trials.hang", args[0].tallies[Outcome.HANG] - before)


#: (owner, attribute, time metric, call-count metric, extra counter, pre-hook)
def _targets(workload_classes) -> List[tuple]:
    engine, fc, inc = campaign_engine, fault_campaign, incremental
    prepare = ("eval.schemes.prepare_ms", "eval.schemes.prepare_calls")
    context = ("eval.fault_campaign.context_ms", None)
    block = ("eval.fault_campaign.block_ms", None)
    tally = ("eval.fault_campaign.tally_ms", None, _hangs, _hangs_before)
    plan = ("runtime.faults.plan_ms", None)
    store = "eval.incremental.store_ms"
    targets = [
        (harness.Harness, "profiles_for", "core.training.train_ms", None),
        (harness, "prepare", *prepare),
        (engine, "prepare", *prepare),
        (fc, "prepare", *prepare),
        (inc, "prepare", *prepare),
        (schemes, "protect", "pipeline.protect_ms", None),
        (engine, "campaign_context", *context),
        (inc, "campaign_context", *context),
        (engine, "run_trial_block", *block),
        (engine, "run_trial_block_batch", *block),
        (inc, "_run_plan_block", *block),
        (fc, "_tally_trial", *tally),
        (inc, "_tally_trial", *tally),
        (fc, "classify_output", "runtime.outcomes.classify_ms", None),
        (fc, "random_plan", *plan),
        (inc, "random_plan", *plan),
        (engine, "_save_checkpoint", "eval.campaign_engine.checkpoint_ms",
         "eval.campaign_engine.checkpoint_saves", _checkpoint_bytes),
        (inc, "partition_sections", "eval.sections.partition_ms", None),
        (SectionStore, "get", store, "eval.incremental.store_gets", _store_hit),
        (SectionStore, "put", store, "eval.incremental.store_puts"),
        (Interpreter, "run", "runtime.interpreter.run_ms",
         "runtime.interpreter.runs", _steps),
        (CompiledExecutor, "run", "runtime.compiler.run_ms",
         "runtime.compiler.runs"),
        (BatchExecutor, "run", "runtime.batch.run_ms", "runtime.batch.runs",
         _lanes),
        (RskipRuntime, "reset", "core.manager.reset_ms", "core.manager.resets"),
    ]
    for cls in workload_classes:
        targets.append((cls, "build", "workloads.build_ms", None))
    return targets


class Tracer:
    """Installs the layer wrappers and accumulates per-scope metrics."""

    def __init__(self):
        self.scopes: Dict[str, Dict[str, float]] = {}
        self._scope: Optional[Dict[str, float]] = None
        self._stack: List[list] = []
        #: duration of wrapped calls made outside any other wrapped call
        self._top = 0.0
        self._cache0 = (0, 0)
        self._patches: List[tuple] = []

    # -- scopes ---------------------------------------------------------------
    def enter(self, scope: Optional[str]) -> None:
        """Close the current scope (if any) and open *scope* (or none)."""
        if self._scope is not None:
            cache = get_cache()
            self._scope["pipeline.cache_hits"] += cache.hits - self._cache0[0]
            self._scope["pipeline.cache_misses"] += cache.misses - self._cache0[1]
        if scope is None:
            self._scope = None
            return
        self._scope = self.scopes.setdefault(scope, defaultdict(float))
        cache = get_cache()
        self._cache0 = (cache.hits, cache.misses)
        self._top = 0.0

    def close_ops(self, root: str, total: float) -> None:
        """Charge *total* seconds of scope time, less the wrapped calls
        made at top level, to the metric *root*."""
        if self._scope is not None:
            self._scope[root] += (total - self._top) * 1000.0

    # -- wrappers -------------------------------------------------------------
    def install(self, workload_classes=()) -> "Tracer":
        for owner, attr, ms_name, count_name, *extra in _targets(workload_classes):
            after = extra[0] if extra else None
            before = extra[1] if len(extra) > 1 else None
            had_own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(
                original, ms_name, count_name, after, before))
            self._patches.append((owner, attr, original, had_own))
        return self

    def remove(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # it was inherited: unshadow the base

    def _wrap(self, original: Callable, ms_name: str, count_name,
              after, before) -> Callable:
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def add(name, value):
            scope = tracer._scope
            if scope is not None:
                scope[name] += value

        def wrapper(*args, **kwargs):
            pre = before(args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer._top += elapsed
                scope = tracer._scope
                if scope is not None:
                    scope[ms_name] += (elapsed - frame[0]) * 1000.0
                    if count_name is not None:
                        scope[count_name] += 1
                    if after is not None:
                        after(add, args, result, pre)

        return functools.wraps(original)(wrapper)

