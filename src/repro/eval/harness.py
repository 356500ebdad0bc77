"""Evaluation harness: train, run and measure workloads under schemes."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import RSkipConfig
from ..core.manager import LoopProfile, SkipStats
from ..core.serialize import profiles_from_json, profiles_to_json
from ..core.training import collect_traces, enable_recording, train_profiles
from ..ir.verifier import verify_module
from ..obs.events import enabled as obs_enabled
from ..obs.events import span as obs_span
from ..pipeline import artifact_key, get_cache
from ..pipeline.registry import get_scheme
from ..runtime.backend import make_executor
from ..runtime.interpreter import RunResult
from ..runtime.outcomes import outputs_equal
from ..runtime.scheduler import TimingModel
from ..workloads.base import Workload, WorkloadInput
from .schemes import PreparedProgram, prepare, rskip_label


@dataclass
class RunRecord:
    """One (workload, scheme, input) execution with all measurements."""

    workload: str
    scheme: str
    steps: int
    cycles: int
    ipc: float
    output: List[float]
    correct: Optional[bool] = None
    skip_rate: Optional[float] = None
    stats: Optional[SkipStats] = None

    def normalized(self, baseline: "RunRecord") -> Dict[str, float]:
        return {
            "time": self.cycles / baseline.cycles if baseline.cycles else 0.0,
            "instructions": self.steps / baseline.steps if baseline.steps else 0.0,
            "ipc": self.ipc / baseline.ipc if baseline.ipc else 0.0,
        }


class Harness:
    """Runs one workload through training and measured executions.

    Mirrors the paper's protocol: one-time compilation, an automated
    offline training session on training inputs, then measurement on
    disjoint test inputs.
    """

    def __init__(
        self,
        workload: Workload,
        config: Optional[RSkipConfig] = None,
        scale: float = 1.0,
        timing: bool = True,
        verify: bool = False,
        train_count: int = 5,
        seed: int = 1,
    ):
        self.workload = workload
        self.config = config or RSkipConfig()
        self.scale = scale
        self.timing = timing
        self.verify = verify
        self.train_count = train_count
        self.seed = seed
        self._profiles_by_ar: Dict[float, Dict[str, LoopProfile]] = {}
        self._traces = None
        self._memo_keys: List[str] = []
        self._prepared_by_scheme: Dict[str, PreparedProgram] = {}
        self._module_fingerprint: Optional[str] = None

    # -- training -------------------------------------------------------------
    def record_traces(self):
        """Run the training inputs once, recording loop-output traces."""
        prepared = prepare(self.workload, rskip_label(self.config.acceptable_range),
                           self.config)
        enable_recording(prepared.application.runtime)
        with obs_span(f"train.record:{self.workload.name}"):
            for inp in self.workload.training_inputs(self.train_count, self.seed, self.scale):
                self._execute(prepared, inp, timing=False)
        self._traces = collect_traces(prepared.application.runtime)
        self._memo_keys = [
            layout.key for layout in prepared.application.layouts
            if layout.mode == "call"
        ]
        return self._traces

    def profile_key(self, acceptable_range: float) -> str:
        """Artifact-cache key for one trained-profile set: the workload's
        module fingerprint × everything that shapes training."""
        if self._module_fingerprint is None:
            from ..runtime.compiler import module_fingerprint

            self._module_fingerprint = module_fingerprint(self.workload.build())
        return artifact_key(
            "trained-profiles", self.workload.name, self._module_fingerprint,
            repr(self.config.with_ar(acceptable_range)),
            self.train_count, self.seed, self.scale,
        )

    def profiles_for(self, acceptable_range: float) -> Dict[str, LoopProfile]:
        """Trained profiles for one AR (traces recorded on demand).

        Training is the most expensive compile-time stage, so results
        also go through the pipeline artifact cache (when enabled),
        serialized with :mod:`repro.core.serialize` — a repeated
        campaign or benchmark invocation skips re-training entirely.
        """
        cached = self._profiles_by_ar.get(acceptable_range)
        if cached is not None:
            return cached
        # a traced run must reproduce the full training event stream
        # (train-loop, exec, phase-cut …), which a cache hit would elide —
        # so the cross-process artifact cache only serves untraced runs
        store = get_cache() if not obs_enabled() else None
        key = self.profile_key(acceptable_range) if store is not None else None
        if store is not None:
            payload = store.get(key)
            if payload is not None:
                profiles = profiles_from_json(payload["profiles"])
                self._profiles_by_ar[acceptable_range] = profiles
                return profiles
        if self._traces is None:
            self.record_traces()
        config = self.config.with_ar(acceptable_range)
        profiles, _reports = train_profiles(self._traces, config, self._memo_keys)
        self._profiles_by_ar[acceptable_range] = profiles
        if store is not None:
            store.put(key, {
                "kind": "trained-profiles",
                "profiles": profiles_to_json(profiles),
            })
        return profiles

    def scheme_profiles(self, scheme: str) -> Optional[Dict[str, LoopProfile]]:
        """The trained profiles *scheme* runs with: those for its
        acceptable range, or ``None`` when it needs no training."""
        descriptor = get_scheme(scheme, self.config)
        if not descriptor.needs_training:
            return None
        return self.profiles_for(descriptor.acceptable_range)

    # -- execution -------------------------------------------------------------
    def prepare_scheme(self, scheme: str, fresh: bool = False) -> PreparedProgram:
        """The workload compiled under *scheme* (any registry spelling).

        Prepared programs are cached: building and transforming the module
        is the expensive part of a measurement, and per-run runtime resets
        make reuse across inputs exact (``fresh=True`` bypasses the cache).
        """
        descriptor = get_scheme(scheme, self.config)
        if not fresh:
            cached = self._prepared_by_scheme.get(descriptor.name)
            if cached is not None:
                return cached
        prepared = prepare(self.workload, descriptor.name, self.config,
                           self.scheme_profiles(descriptor.name))
        if self.verify:
            verify_module(prepared.module)
        if not fresh:
            self._prepared_by_scheme[descriptor.name] = prepared
        return prepared

    def _execute(
        self,
        prepared: PreparedProgram,
        inp: WorkloadInput,
        timing: Optional[bool] = None,
    ) -> Tuple[RunResult, List[float]]:
        module = prepared.module
        memory = self.workload.fresh_memory(module, inp)
        use_timing = self.timing if timing is None else timing
        # timed runs need the reference interpreter's cycle model; untimed
        # measurement runs go through the backend dispatch (compiled by
        # default) — make_executor routes accordingly
        tm = TimingModel() if use_timing else None
        executor = make_executor(module, memory=memory, timing=tm)
        executor.register_intrinsics(prepared.intrinsics)
        result = executor.run(prepared.main, inp.args)
        output = memory.read_global(*inp.output)
        return result, output

    def run_scheme(
        self,
        scheme: str,
        inp: WorkloadInput,
        golden: Optional[List[float]] = None,
        prepared: Optional[PreparedProgram] = None,
    ) -> RunRecord:
        if prepared is None:
            prepared = self.prepare_scheme(scheme)
        runtime = prepared.runtime
        before = None
        if runtime is not None:
            # prepared programs are reused across inputs; reset the runtime
            # so no predictor or QoS state leaks between runs, and report
            # this run's stats delta — never the cumulative counters
            runtime.reset()
            before = runtime.total_stats()
        with obs_span(f"measure:{self.workload.name}:{prepared.scheme}"):
            result, output = self._execute(prepared, inp)
        stats = None
        skip = None
        if runtime is not None:
            stats = runtime.stats_delta(before)
            skip = stats.skip_rate
        return RunRecord(
            workload=self.workload.name,
            scheme=prepared.scheme,
            steps=result.steps,
            cycles=result.cycles,
            ipc=result.ipc,
            output=output,
            correct=None if golden is None else outputs_equal(golden, output),
            skip_rate=skip,
            stats=stats,
        )

    def run_all(
        self,
        schemes: Sequence[str],
        inp: WorkloadInput,
    ) -> Dict[str, RunRecord]:
        """Run every scheme on one input; UNSAFE is always run first and
        used as both the golden output and the normalization baseline."""
        records: Dict[str, RunRecord] = {}
        unsafe = self.run_scheme("UNSAFE", inp)
        unsafe.correct = True
        records["UNSAFE"] = unsafe
        for scheme in schemes:
            if scheme == "UNSAFE":
                continue
            records[scheme] = self.run_scheme(scheme, inp, golden=unsafe.output)
        return records


def campaign_profiles(scale: float, config: Optional[RSkipConfig] = None):
    """The trained-profile source of fault campaigns at *scale*:
    ``source(workload, scheme)`` is :meth:`Harness.scheme_profiles` of
    one untimed harness per workload.  ``repro figure9``, ``tradeoff``,
    ``campaign`` and serve jobs all train here, so their tallies agree
    at the same parameters."""
    harnesses: Dict[str, Harness] = {}

    def source(workload: Workload, scheme: str):
        harness = harnesses.get(workload.name)
        if harness is None:
            harness = harnesses[workload.name] = Harness(
                workload, config=config, scale=scale, timing=False)
        return harness.scheme_profiles(scheme)

    return source
