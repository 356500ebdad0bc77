"""Incremental fault campaigns: stratified per-section injection with a
persistent section store (FastFlip).

The default campaign draws every trial's fault site uniformly over the
whole region from one per-trial seed stream — statistically right, but
monolithic: any edit invalidates all of it.  The **stratified** mode
here allocates trials to sections (``repro.eval.sections``)
proportionally to their dynamic step count (largest-remainder rounding,
so exactly ``trials`` run), and draws each section's plans from its own
seed stream::

    stable_seed(seed, workload, scheme, section_fingerprint, trial_index)

keyed by the section *fingerprint*, not its position — so one section's
tallies are byte-independent of every other section's existence.  That
independence is what makes composition exact rather than approximate: a
stored per-section tally can be replayed into any later campaign whose
section carries the same fingerprint, step count and trial allocation.

``run_campaign_stratified(..., store=..., reuse=True)`` is the
incremental path: unchanged sections are served from a
``.repro-cache/campaigns/`` disk store (same corrupt-entry-removal
discipline as the pipeline artifact cache), changed sections re-inject
with ``random_plan`` restricted to their step window (local draw, then
mapped to the global step), and the total is composed by step-weighted
merge in section order.  Difftest oracle O7 pins the equivalence:
incremental tallies == stratified-from-scratch tallies, byte for byte,
on both the reference and batch backends.

The default (non-stratified) seeding is untouched — every pinned
byte-identity tally in the repo stays valid.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import RSkipConfig
from ..core.manager import LoopProfile
from ..pipeline.cache import ArtifactCache, artifact_key, cache_dir
from ..pipeline.registry import canonical_scheme, get_scheme
from ..runtime.backend import default_backend
from ..runtime.faults import DEFAULT_KIND_WEIGHTS, FaultPlan, random_plan
from ..workloads.base import Workload, WorkloadInput, stable_seed
from .fault_campaign import (
    CampaignResult,
    _tally_trial,  # noqa: F401  (perfbench/tracer.py wraps this name)
    campaign_context,
    run_plans,
)
from .schemes import PreparedProgram, prepare
from .sections import Section, SectionPartition, partition_sections

#: Bump when the stored per-section payload layout changes; old entries
#: become misses.
STORE_VERSION = 1


def campaign_store_dir() -> str:
    """Disk location of the per-section tally store (under the pipeline
    cache directory, so ``REPRO_CACHE_DIR`` relocates both together)."""
    return os.path.join(cache_dir(), "campaigns")


def section_store_key(
    workload: str,
    scheme_hash: str,
    section: Section,
    trials: int,
    seed: int,
    scale: float,
    kind_weights: Tuple,
    max_steps: int,
) -> str:
    """The exactness axis of reuse: everything that shapes a section's
    tallies.  Fingerprint covers the code; step count and trial
    allocation cover the sampling; seed/scale/kind weights cover the
    fault model; max_steps covers the hang budget."""
    return artifact_key(
        "campaign-section", STORE_VERSION, workload, scheme_hash,
        section.fingerprint, section.step_count, trials, seed, scale,
        [list(kw) for kw in kind_weights], max_steps,
    )


class SectionStore:
    """Persistent per-section tally store with the pipeline cache's
    corrupt-entry-removal discipline (:class:`ArtifactCache` validates
    version and embedded key on read and drops anything that fails)."""

    def __init__(self, directory: Optional[str] = None, capacity: int = 1024):
        self.directory = directory if directory is not None else campaign_store_dir()
        self.cache = ArtifactCache(capacity=capacity, directory=self.directory)

    def get(self, key: str) -> Optional[CampaignResult]:
        payload = self.cache.get(key)
        if payload is None:
            return None
        try:
            return CampaignResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            # structurally valid cache entry with a semantically broken
            # payload (hand edit, layout drift): treat as a miss
            return None

    def sweep(self, max_age: Optional[float] = None) -> int:
        """Remove orphaned ``*.tmp`` files (crashed writers) from the
        store directory; same discipline as the pipeline cache.  Returns
        the number of files removed."""
        from ..pipeline.cache import STALE_TMP_AGE, sweep_stale_tmp

        return sweep_stale_tmp(
            self.directory,
            STALE_TMP_AGE if max_age is None else max_age,
        )

    def put(self, key: str, result: CampaignResult, section: Section) -> None:
        data = result.to_dict()
        # region_steps is campaign-wide state, not section state: zero it
        # in the store and re-stamp on load so a reused tally merges into
        # the current campaign's context
        data["region_steps"] = 0
        self.cache.put(key, {
            "result": data,
            "section": section.name,
            "step_count": section.step_count,
        })


def stratified_allocation(step_counts: Sequence[int], trials: int) -> List[int]:
    """Allocate *trials* proportionally to step counts with
    largest-remainder rounding (deterministic; ties broken by index), so
    the totals sum to exactly *trials*."""
    total = sum(step_counts)
    if total <= 0:
        raise ValueError("cannot allocate trials over an empty region")
    exact = [trials * count / total for count in step_counts]
    counts = [int(math.floor(x)) for x in exact]
    order = sorted(range(len(exact)),
                   key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:trials - sum(counts)]:
        counts[i] += 1
    return counts


def section_trial_seed(
    seed: int, workload: str, scheme: str, section_fp: str, trial_index: int,
) -> int:
    """Per-trial seed of one section's stream — keyed by the section
    fingerprint, so the stream survives edits elsewhere in the program."""
    return stable_seed(seed, workload, scheme, section_fp, trial_index)


def section_plans(
    section: Section,
    trials: int,
    seed: int,
    workload: str,
    scheme: str,
    kind_weights: Tuple = DEFAULT_KIND_WEIGHTS,
) -> List[FaultPlan]:
    """The fault plans of one section's trials: drawn locally over the
    section's step window, then mapped to global region steps."""
    plans = []
    for trial in range(trials):
        rng = random.Random(section_trial_seed(
            seed, workload, scheme, section.fingerprint, trial))
        local = random_plan(rng, section.step_count, kind_weights)
        plans.append(FaultPlan(
            step=section.global_step(local.step), kind=local.kind,
            bit=local.bit, pick=local.pick, burst_len=local.burst_len))
    return plans


# calls go through this name because perfbench/tracer.py wraps it
_run_plan_block = run_plans


@dataclass
class SectionReport:
    """What one section contributed to a stratified campaign."""

    name: str
    fingerprint: str
    step_count: int
    trials: int
    reused: bool


@dataclass
class StratifiedResult:
    """A composed stratified campaign plus its per-section provenance."""

    result: CampaignResult
    sections: List[SectionReport] = field(default_factory=list)

    @property
    def reused_sections(self) -> int:
        return sum(1 for s in self.sections if s.reused)

    @property
    def injected_sections(self) -> int:
        return sum(1 for s in self.sections if not s.reused and s.trials > 0)

    @property
    def reused_trials(self) -> int:
        return sum(s.trials for s in self.sections if s.reused)

    @property
    def injected_trials(self) -> int:
        return sum(s.trials for s in self.sections if not s.reused)


def run_campaign_stratified(
    workload: Workload,
    scheme: str,
    trials: int,
    seed: int = 0,
    scale: float = 0.45,
    config: Optional[RSkipConfig] = None,
    profiles: Optional[Dict[str, LoopProfile]] = None,
    inp: Optional[WorkloadInput] = None,
    prepared: Optional[PreparedProgram] = None,
    kind_weights: Tuple = DEFAULT_KIND_WEIGHTS,
    store: Optional[SectionStore] = None,
    reuse: bool = False,
    backend: Optional[str] = None,
) -> StratifiedResult:
    """One stratified (optionally incremental) fault campaign.

    Trials are allocated to sections by step count and every section
    draws from its own fingerprint-keyed seed stream, so per-section
    tallies compose exactly.  With a *store*, finished section tallies
    are persisted; with ``reuse=True`` sections whose store key matches
    (fingerprint × scheme hash × fault-model params × allocation) are
    served from the store instead of re-injected — ``repro campaign
    --incremental``.

    Stratified sampling is opt-in precisely because its seed streams
    differ from the default campaign's: the two estimate the same rates
    but are not byte-comparable.  Within stratified mode, tallies are
    byte-identical across backends, trial chunkings and reuse patterns
    (oracle O7).
    """
    scheme = canonical_scheme(scheme, config)
    if trials <= 0:
        raise ValueError("trials must be positive")
    if inp is None:
        inp = workload.test_inputs(1, seed=seed + 17, scale=scale)[0]
    if prepared is None:
        prepared = prepare(workload, scheme, config, profiles)
    ctx = campaign_context(prepared, workload, inp)
    partition = partition_sections(prepared, workload, inp, ctx.region)
    if partition.region_steps != ctx.region_steps:
        raise RuntimeError(
            f"{workload.name}/{scheme}: section counting run saw "
            f"{partition.region_steps} region steps, campaign context "
            f"{ctx.region_steps}")
    scheme_hash = get_scheme(scheme, config).descriptor_hash()
    engine = backend if backend is not None else default_backend()

    allocation = stratified_allocation(
        [s.step_count for s in partition.sections], trials)

    total = CampaignResult(workload.name, prepared.scheme, 0)
    total.region_steps = ctx.region_steps
    outcome = StratifiedResult(total)
    for section, count in zip(partition.sections, allocation):
        if count == 0:
            outcome.sections.append(SectionReport(
                section.name, section.fingerprint, section.step_count,
                0, False))
            continue
        key = None
        part: Optional[CampaignResult] = None
        if store is not None:
            key = section_store_key(
                workload.name, scheme_hash, section, count, seed, scale,
                kind_weights, ctx.max_steps)
            if reuse:
                part = store.get(key)
        reused = part is not None
        if part is None:
            plans = section_plans(
                section, count, seed, workload.name, scheme, kind_weights)
            part = _run_plan_block(
                prepared, workload, inp, ctx, plans, scheme, backend=engine,
                config=config, profiles=profiles)
            if store is not None:
                store.put(key, part, section)
        else:
            part.region_steps = ctx.region_steps
        total.merge(part)
        outcome.sections.append(SectionReport(
            section.name, section.fingerprint, section.step_count,
            count, reused))
    return outcome
