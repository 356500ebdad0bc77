"""Statistical fault injection (paper section 7.2, Figures 9a/9b).

Per trial, one SEU is injected at a uniformly random dynamic instruction
*inside the detected loops* (the paper's discipline) and the run is
classified as Correct / SDC / Segfault / Core dump / Hang against the
golden output.  For RSkip schemes the campaign additionally measures
*false negatives*: runs where the detected loop's output region diverged
from golden — a corrupted value slipped through fuzzy validation.

Everything a campaign needs from the fault-free execution comes from one
golden run per campaign, captured on the reference interpreter
(:func:`campaign_context`): the golden outputs, both step counters, the
hang budget, and the golden prefix — the snapshots reference trials
fast-forward from and the segments section windows and skip sites are
read from.
"""
from __future__ import annotations

import gc
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.config import RSkipConfig
from ..core.manager import LoopProfile
from ..obs.events import (
    TRIAL_OUTCOME,
    emit as obs_emit,
    enabled as obs_enabled,
    span as obs_span,
)
from ..runtime.errors import TRIAL_TRAPS, classify_trap
from ..pipeline.registry import PAPER_SCHEMES, canonical_scheme
from ..runtime.faults import (
    DEFAULT_KIND_WEIGHTS,
    FaultPlan,
    Region,
    random_plan,
)
from ..runtime.interpreter import DecodedProgram
from ..runtime.outcomes import Outcome, classify_output, outputs_equal
from ..runtime.prefix import GoldenPrefix, TrialRow, capture as capture_prefix, finish
from ..workloads.base import Workload, WorkloadInput, stable_seed
from .schemes import (
    PreparedProgram,
    fault_region,
    prepare,  # noqa: F401  (perfbench/tracer.py wraps this name)
)

#: Budget multiplier over the fault-free step count before declaring Hang.
HANG_FACTOR = 8

#: Largest problem size a fault campaign injects into (the default scale
#: of every campaign entry point).
MAX_INJECTION_SCALE = 0.45

#: Lane-slab width of the batch backend.  Engine chunks (DEFAULT_CHUNK
#: trials) map 1:1 to batches; a single-chunk campaign slabs its trials
#: into batches of at most this many lanes.
BATCH_LANES = 256


@dataclass
class CampaignResult:
    """Outcome statistics of one (workload, scheme) campaign."""

    workload: str
    scheme: str
    trials: int
    tallies: Counter = field(default_factory=Counter)
    #: detection events without recovery (SWIFT only)
    detected: int = 0
    #: runs whose detected-loop output diverged silently (Figure 9b)
    false_negatives: int = 0
    #: runs in which RSkip's exact validation flagged a mismatch (a fault
    #: was caught and sent through the majority-vote recovery)
    caught: int = 0
    #: final outcome classes of the false-negative runs
    fn_by_outcome: Counter = field(default_factory=Counter)
    #: outcome tallies split by injected fault kind ("value", "skip", ...)
    kind_tallies: Dict[str, Counter] = field(default_factory=dict)
    region_steps: int = 0

    @property
    def protection_rate(self) -> float:
        """Fraction of runs with a fully correct output."""
        return self.tallies[Outcome.CORRECT] / self.trials if self.trials else 0.0

    def rate(self, outcome: Outcome) -> float:
        return self.tallies[outcome] / self.trials if self.trials else 0.0

    @property
    def fn_rate(self) -> float:
        return self.false_negatives / self.trials if self.trials else 0.0

    def confidence_interval(self, outcome: Outcome = Outcome.CORRECT, z: float = 1.96):
        """Wilson score interval for an outcome's rate (the paper runs
        1000 trials; at smaller counts the interval says how much the
        estimate can wobble)."""
        n = self.trials
        if n == 0:
            return (0.0, 1.0)
        p = self.rate(outcome)
        denom = 1.0 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        return (max(0.0, center - half), min(1.0, center + half))

    def merge(self, other: "CampaignResult") -> None:
        """Fold another chunk of the same campaign into this result.

        Per-trial seeding makes tallies independent of how trials were
        chunked, so merging chunks in trial order reproduces the serial
        run exactly.
        """
        if (self.workload, self.scheme) != (other.workload, other.scheme):
            raise ValueError(
                f"cannot merge campaign {other.workload}/{other.scheme} "
                f"into {self.workload}/{self.scheme}"
            )
        self.trials += other.trials
        self.tallies.update(other.tallies)
        self.detected += other.detected
        self.false_negatives += other.false_negatives
        self.caught += other.caught
        self.fn_by_outcome.update(other.fn_by_outcome)
        for kind, tallies in other.kind_tallies.items():
            self.kind_tallies.setdefault(kind, Counter()).update(tallies)
        if (self.region_steps and other.region_steps
                and self.region_steps != other.region_steps):
            # chunks of one campaign share a golden run; a
            # region-step mismatch means the chunks came from different
            # campaign configurations and their tallies must not be mixed
            raise ValueError(
                f"cannot merge campaign chunks with differing region_steps "
                f"({self.region_steps} != {other.region_steps})")
        if self.region_steps == 0:
            self.region_steps = other.region_steps

    def to_dict(self) -> dict:
        """JSON-serializable form (campaign checkpoints)."""
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "trials": self.trials,
            "tallies": {o.name: n for o, n in self.tallies.items()},
            "detected": self.detected,
            "false_negatives": self.false_negatives,
            "caught": self.caught,
            "fn_by_outcome": {o.name: n for o, n in self.fn_by_outcome.items()},
            "kind_tallies": {
                kind: {o.name: n for o, n in tallies.items()}
                for kind, tallies in sorted(self.kind_tallies.items())
            },
            "region_steps": self.region_steps,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignResult":
        result = cls(data["workload"], data["scheme"], data["trials"])
        result.tallies = Counter(
            {Outcome[name]: n for name, n in data["tallies"].items()}
        )
        result.detected = data["detected"]
        result.false_negatives = data["false_negatives"]
        result.caught = data["caught"]
        result.fn_by_outcome = Counter(
            {Outcome[name]: n for name, n in data["fn_by_outcome"].items()}
        )
        # absent in checkpoints written before the skip fault kinds landed
        result.kind_tallies = {
            kind: Counter({Outcome[name]: n for name, n in tallies.items()})
            for kind, tallies in data.get("kind_tallies", {}).items()
        }
        result.region_steps = data["region_steps"]
        return result


def _run_trial(
    prepared: PreparedProgram,
    workload: Workload,
    inp: WorkloadInput,
    ctx: "CampaignContext",
    plan: FaultPlan,
    handoff: bool,
) -> TrialRow:
    """One faulted trial, from a freshly reset runtime (``caught`` comes
    from its stats delta).  With *handoff*, a trial whose plan the
    campaign's golden prefix finds masked settles as the golden row
    without running (:meth:`~repro.runtime.prefix.GoldenPrefix.settle`).
    Every other trial runs on the reference interpreter, fast-forwarded
    from the golden prefix (from scratch on a context without one) and,
    with *handoff*, ended at the golden run once it re-joins it or else
    finished on the compiled backend once its fault has acted."""
    runtime = prepared.runtime
    since = None
    if runtime is not None:
        runtime.reset()
        since = runtime.total_stats()
    golden = ctx.prefix
    if handoff and golden is not None and golden.masked(plan):
        fresh = partial(workload.fresh_memory, prepared.module, inp)
        return _mark_caught(golden.settle(fresh, runtime), runtime, since)
    memory = workload.fresh_memory(prepared.module, inp)
    state = None
    if golden is not None:
        state = golden.state_for(plan.step, memory, runtime)
    row = finish(prepared.module, memory, plan, prepared.intrinsics,
                 ctx.region, ctx.max_steps,
                 ctx.decoded_for(prepared.module, memory), prepared.compiled,
                 prepared.main, inp.args, state=state, handoff=handoff,
                 golden=golden, runtime=runtime)
    return _mark_caught(row, runtime, since)


def _run_once_batch(
    prepared: PreparedProgram,
    workload: Workload,
    inp: WorkloadInput,
    plans: Sequence[FaultPlan],
    ctx: "CampaignContext",
    runtimes: Optional[list],
) -> List[TrialRow]:
    """Value-flip trials as one lane-vectorized execution.

    Returns one :class:`TrialRow` per plan, whose memory is the lane's
    view: row *i* equals what :func:`_run_trial` returns for
    ``plans[i]``.  *runtimes* holds one runtime per lane for a stateful
    scheme, reset here (each ends up with its trial's statistics); a
    stateless scheme passes ``None`` and every lane shares
    ``prepared.intrinsics``.
    """
    from ..runtime.batch import BatchExecutor

    marks = None
    if runtimes is not None:
        for runtime in runtimes:
            runtime.reset()
        marks = [runtime.total_stats() for runtime in runtimes]
    template = workload.fresh_memory(prepared.module, inp)
    # lane execution allocates heavily but briefly; keep the cyclic
    # collector out of the hot loop
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        rows = BatchExecutor(
            prepared.module, template, len(plans), fault_plans=list(plans),
            fault_region=ctx.region, max_steps=ctx.max_steps,
            intrinsics=prepared.intrinsics if runtimes is None else None,
            compiled=prepared.compiled, runtimes=runtimes,
            decoded=ctx.decoded_for(prepared.module, template),
        ).run(prepared.main, inp.args)
    finally:
        if gc_was_enabled:
            gc.enable()
    if runtimes is None:
        return rows
    return [_mark_caught(row, runtime, since)
            for row, runtime, since in zip(rows, runtimes, marks)]


@dataclass
class CampaignContext:
    """Fault-free reference state of one (workload, scheme, input) campaign,
    all from its one golden run: the injection region, golden outputs,
    its region steps, the hang budget and the golden prefix
    (:func:`~repro.runtime.prefix.capture`) — the snapshots reference
    trials fast-forward from and the segments section windows and skip
    sites are read from.  Workers cache one per prepared program so
    trial chunks pay for the golden run once; it also holds the program
    decoded for the reference interpreter.  A context without a prefix
    runs its trials from scratch."""

    region: Region
    golden: List[float]
    golden_loop: List[float]
    region_steps: int
    max_steps: int
    prefix: Optional[GoldenPrefix] = None
    decoded: Optional[DecodedProgram] = None

    def decoded_for(self, module, memory) -> DecodedProgram:
        """The decoded program for *module* on *memory*'s global layout
        (decoded anew only when either differs from the last call's)."""
        if self.decoded is None or not self.decoded.fits(
                module, self.region, memory):
            self.decoded = DecodedProgram(module, self.region, memory)
        return self.decoded


def campaign_context(
    prepared: PreparedProgram,
    workload: Workload,
    inp: WorkloadInput,
) -> CampaignContext:
    """The golden (fault-free) run of a campaign on *prepared*, captured
    on the reference interpreter (one ``ref.capture`` span; nothing
    reaches the trace body): golden outputs, region steps, the hang
    budget from its step count, and the golden prefix.

    The runtime is reset before the run, so a cached prepared program
    yields byte-identical reference state to a freshly built one.
    """
    region = fault_region(prepared)
    runtime = prepared.runtime
    if runtime is not None:
        runtime.reset()
    memory = workload.fresh_memory(prepared.module, inp)
    decoded = DecodedProgram(prepared.module, region, memory)
    try:
        with obs_span("ref.capture"):
            golden = capture_prefix(
                prepared.module, memory, prepared.intrinsics, runtime, region,
                decoded, prepared.main, inp.args, 500_000_000)
    except TRIAL_TRAPS as exc:
        raise RuntimeError(
            f"{workload.name}/{prepared.scheme}: fault-free run trapped "
            f"with {classify_trap(exc)[0]}") from None
    result = golden.result
    if result.region_steps <= 0:
        raise RuntimeError(f"{workload.name}/{prepared.scheme}: empty fault region")
    return CampaignContext(
        region, memory.read_global(*inp.output),
        memory.read_global(*inp.loop_output), result.region_steps,
        max(result.steps * HANG_FACTOR, 100_000), golden, decoded,
    )


def injection_scale(scale: float) -> float:
    """The problem size fault injection runs at for a front-end *scale*:
    campaigns use smaller problems than the performance study."""
    return min(scale, MAX_INJECTION_SCALE)


def campaign_input(workload: Workload, seed: int, scale: float) -> WorkloadInput:
    """The one test input a campaign at *seed* (and ``repro run``)
    executes on."""
    return workload.test_inputs(1, seed=seed + 17, scale=scale)[0]


def trial_seed(seed: int, workload: str, scheme: str, trial_index: int) -> int:
    """The deterministic seed of one trial.

    Deriving per-trial (rather than drawing from one sequential stream)
    makes the tallies independent of execution order, so parallel and
    serial campaigns agree exactly and interrupted campaigns can resume.
    """
    return stable_seed(seed, workload, scheme, trial_index)


#: outcome class of each trap kind :func:`classify_trap` reports
_TRAP_OUTCOMES = {"segfault": Outcome.SEGFAULT, "hang": Outcome.HANG,
                  "coredump": Outcome.CORE_DUMP}


def _tally_trial(
    result: CampaignResult,
    ctx: CampaignContext,
    inp: WorkloadInput,
    row: TrialRow,
    stateful: bool,
    trial: int,
    kind: Optional[str] = None,
) -> None:
    """Classify one finished trial into *result* — the same rule for
    every engine, so a campaign's tallies do not depend on which one
    executed the trials."""
    trap, detected = row.trap, row.detected
    if row.caught:
        result.caught += 1
    false_negative = False
    if detected:
        result.detected += 1
        outcome = Outcome.CORE_DUMP  # aborted execution
    elif trap is not None:
        outcome = _TRAP_OUTCOMES[trap]
    else:
        outcome = classify_output(ctx.golden, row.memory.read_global(*inp.output))
        if stateful and not outputs_equal(
                ctx.golden_loop, row.memory.read_global(*inp.loop_output)):
            false_negative = True
            result.false_negatives += 1
            result.fn_by_outcome[outcome] += 1
    result.tallies[outcome] += 1
    if kind is not None:
        result.kind_tallies.setdefault(kind, Counter())[outcome] += 1
    if obs_enabled():
        obs_emit(
            TRIAL_OUTCOME,
            workload=result.workload, scheme=result.scheme, trial=trial,
            outcome=outcome.name, trap=trap, detected=detected,
            caught=row.caught, false_negative=false_negative,
        )


def seeded_plans(
    seed: int,
    workload: str,
    scheme: str,
    start: int,
    count: int,
    region_steps: int,
    kind_weights: Tuple = DEFAULT_KIND_WEIGHTS,
) -> List[FaultPlan]:
    """The default campaign's plan source: trial *i* of [start,
    start+count) draws its plan from its own :func:`trial_seed` stream."""
    return [
        random_plan(random.Random(trial_seed(seed, workload, scheme, trial)),
                    region_steps, kind_weights)
        for trial in range(start, start + count)
    ]


def _mark_caught(row: TrialRow, runtime, since) -> TrialRow:
    """*row*, marked caught when *runtime* (if any) counted an exact
    validation mismatch since its stats were *since*."""
    if runtime is not None and runtime.stats_delta(since).recompute_mismatches:
        return row._replace(caught=True)
    return row


def trial_rows(
    prepared: PreparedProgram,
    workload: Workload,
    inp: WorkloadInput,
    ctx: CampaignContext,
    plans: Sequence[FaultPlan],
    backend: str = "ref",
    lanes: int = BATCH_LANES,
) -> Iterator[TrialRow]:
    """Run one trial per plan and yield their rows in plan order.

    Each trial starts from a freshly reset runtime, so a fault that
    corrupts predictor state cannot bias the next trial, and ``caught``
    comes from a per-trial stats delta.  ``"ref"`` and ``"compiled"``
    run the plans one by one (:func:`_run_trial`).  ``"ref"`` runs each
    on the reference interpreter, fast-forwarded to the latest snapshot
    of *ctx*'s golden prefix at or before its fault step.  ``"compiled"``
    ends each trial early in one of three ways: a masked value flip
    settles as the golden row at plan time without running; any other
    trial runs on the reference as ``"ref"`` does and ends at the golden
    run once it re-joins it, or else is handed off to the compiled
    backend once its fault has acted.  ``"batch"`` runs the value
    flips of each slab of up to *lanes* plans as one BatchExecutor run,
    and every other plan as ``"compiled"`` does.  A runtime-stateful
    scheme gives every lane slot its own fork of ``prepared.runtime``
    (:func:`~repro.runtime.batch.fork_lanes`); the executor runs the
    lanes on one shared copy of that state until their intrinsic calls
    diverge, and leaves each lane's statistics in its own fork.
    Rows are identical across backends, slab widths, fast-forwarding,
    settlement and hand-offs (difftest oracles O5 and O6 compare them).
    """
    if backend != "batch":
        for plan in plans:
            # unbound here, so a row's memory can go before the next trial
            yield _run_trial(prepared, workload, inp, ctx, plan,
                             backend == "compiled")
        return
    from ..runtime.batch import fork_lanes

    lane_runtimes = fork_lanes(prepared.runtime, min(lanes, len(plans)))
    for first in range(0, len(plans), lanes):
        slab = plans[first:first + lanes]
        values = [plan for plan in slab if plan.kind == "value"]
        rows = iter(_run_once_batch(
            prepared, workload, inp, values, ctx,
            lane_runtimes and lane_runtimes[:len(values)]) if values else ())
        for plan in slab:
            yield (next(rows) if plan.kind == "value" else
                   _run_trial(prepared, workload, inp, ctx, plan, True))


def run_plans(
    prepared: PreparedProgram,
    workload: Workload,
    inp: WorkloadInput,
    ctx: CampaignContext,
    plans: Sequence[FaultPlan],
    start: int = 0,
    backend: str = "ref",
    lanes: int = BATCH_LANES,
) -> CampaignResult:
    """Run and tally one trial per plan (obs trial ``start + i``) through
    :func:`trial_rows`; tallies are byte-identical across backends, slab
    widths and fast-forwarding."""
    result = CampaignResult(workload.name, prepared.scheme, len(plans))
    result.region_steps = ctx.region_steps
    stateful = prepared.runtime is not None
    rows = trial_rows(prepared, workload, inp, ctx, plans, backend, lanes)
    for i, plan in enumerate(plans):
        # next(rows) is not bound here, so its memory is freed before the
        # next trial runs
        _tally_trial(result, ctx, inp, next(rows), stateful, start + i,
                     kind=plan.kind)
    return result


def run_trial_block(
    prepared: PreparedProgram,
    workload: Workload,
    inp: WorkloadInput,
    ctx: CampaignContext,
    scheme: str,
    seed: int,
    start: int,
    count: int,
    kind_weights: Tuple = DEFAULT_KIND_WEIGHTS,
    lanes: int = BATCH_LANES,
    backend: str = "ref",
) -> CampaignResult:
    """Run trials [start, start+count) of a default-seeded campaign:
    :func:`seeded_plans` fed to :func:`run_plans`."""
    plans = seeded_plans(seed, workload.name, scheme, start, count,
                         ctx.region_steps, kind_weights)
    return run_plans(prepared, workload, inp, ctx, plans, start=start,
                     backend=backend, lanes=lanes)


# the batch backend's spelling of run_trial_block (benchmarks, tests)
run_trial_block_batch = partial(run_trial_block, backend="batch")


def run_campaign(
    workload: Workload,
    scheme: str,
    trials: int,
    seed: int = 0,
    scale: float = MAX_INJECTION_SCALE,
    config: Optional[RSkipConfig] = None,
    profiles: Optional[Dict[str, LoopProfile]] = None,
    inp: Optional[WorkloadInput] = None,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    progress: Optional[Callable[[int, int, float], None]] = None,
    kind_weights: Tuple = DEFAULT_KIND_WEIGHTS,
) -> CampaignResult:
    """Inject *trials* single faults into one workload under one scheme,
    drawing fault kinds from *kind_weights*.  Runs on the campaign engine;
    per-trial seeding makes the tallies identical for every *jobs* value,
    chunking and backend."""
    from .campaign_engine import run_campaign_parallel

    return run_campaign_parallel(
        workload, scheme, trials, seed=seed, scale=scale, config=config,
        profiles=profiles, inp=inp, jobs=jobs, checkpoint=checkpoint,
        resume=resume, progress=progress, kind_weights=kind_weights,
        chunk=_engine_chunk(trials, jobs, checkpoint),
    )


def _engine_chunk(trials: int, jobs: int, checkpoint: Optional[str]) -> int:
    """Trials per engine work unit: a campaign with nothing to spread over
    workers or checkpoint between runs as a single chunk."""
    from .campaign_engine import DEFAULT_CHUNK

    return trials if jobs <= 1 and checkpoint is None else DEFAULT_CHUNK


def figure9(
    workloads: Sequence[Workload],
    schemes: Sequence[str] = PAPER_SCHEMES,
    trials: int = 100,
    seed: int = 0,
    scale: float = MAX_INJECTION_SCALE,
    config: Optional[RSkipConfig] = None,
    profile_source=None,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    progress: Optional[Callable[[int, int, float], None]] = None,
) -> Dict[Tuple[str, str], CampaignResult]:
    """The full Figure 9 campaign: every workload under every scheme.

    ``profile_source(workload, scheme) -> profiles or None`` supplies
    trained profiles (:func:`repro.eval.harness.campaign_profiles`).

    ``jobs > 1`` shards (workload, scheme, trial-chunk) work units over a
    process pool; *checkpoint* names a JSON file partial tallies are saved
    to, and ``resume=True`` skips the chunks it already holds.  Thanks to
    per-trial seeding the tallies are identical for every *jobs* value.
    """
    groups = []
    for workload in workloads:
        for scheme in schemes:
            name = canonical_scheme(scheme, config)
            profiles = (profile_source(workload, name)
                        if profile_source is not None else None)
            groups.append((workload, name, profiles))

    from .campaign_engine import run_campaigns

    return run_campaigns(
        groups, trials=trials, seed=seed, scale=scale, config=config,
        jobs=jobs, checkpoint=checkpoint, resume=resume, progress=progress,
        chunk=_engine_chunk(trials, jobs, checkpoint),
    )
