"""Golden-prefix fast-forwarding of reference-interpreter trials, and
their hand-off to the compiled backend.

A fast-forwarded trial restores the latest golden-run snapshot at or
before its fault step and continues on the reference interpreter.  Every
per-trial observable — trap, detection, outputs, loop outputs, ``steps``,
``region_steps`` and the runtime's stats delta (hence ``caught``) — must
equal the from-scratch trial's, for stateless and stateful schemes and
for every fault kind; and it must stay the same when the trial finishes
on the compiled backend once its fault has fully acted.
"""
import bisect
import dataclasses
import pickle

import pytest

from repro.core.serialize import profiles_to_json
from repro.eval import Harness
from repro.eval import fault_campaign
from repro.eval.fault_campaign import (
    HANG_FACTOR,
    campaign_context,
    run_campaign,
    run_plans,
    seeded_plans,
)
from repro.eval.schemes import prepare
from repro.pipeline.registry import all_descriptors
from repro.runtime import prefix
from repro.runtime.backend import make_executor, set_default_backend
from repro.runtime.batch import SCALAR_CUTOFF
from repro.runtime.compiler import CompiledExecutor
from repro.runtime.faults import (
    ADVERSARIAL_KIND_WEIGHTS, CONTROL_KINDS, DEFAULT_KIND_WEIGHTS, FaultPlan)
from repro.workloads import ALL_WORKLOADS, get_workload

SCALE = 0.35
SEED = 3
WEIGHTS = {"default": DEFAULT_KIND_WEIGHTS, "adversarial": ADVERSARIAL_KIND_WEIGHTS}

_CAMPAIGNS = {}


def campaign(workload_name, scheme):
    """(workload, prepared, inp, ctx with a captured prefix), cached."""
    key = (workload_name, scheme)
    if key not in _CAMPAIGNS:
        workload = get_workload(workload_name)
        profiles = None
        if scheme.startswith("AR"):
            profiles = Harness(workload, scale=SCALE, timing=False).profiles_for(
                int(scheme[2:]) / 100)
        prepared = prepare(workload, scheme, profiles=profiles)
        inp = workload.test_inputs(1, seed=SEED + 17, scale=SCALE)[0]
        ctx = campaign_context(prepared, workload, inp)
        ctx.prefix = fault_campaign._capture_prefix(prepared, workload, inp, ctx)
        _CAMPAIGNS[key] = (workload, prepared, inp, ctx)
    return _CAMPAIGNS[key]


@pytest.fixture
def handed_off(monkeypatch):
    """The state of every trial the trial runner finished on the compiled
    backend, in order."""
    states = []

    class Recorded(CompiledExecutor):
        def run(self, func_name, args=(), state=None):
            states.append(state)
            return super().run(func_name, args, state=state)

    monkeypatch.setattr(prefix, "CompiledExecutor", Recorded)
    return states


def trial_rows(workload, prepared, inp, ctx, plans, handoff=False):
    """Per-trial observables, each trial from a freshly reset runtime
    (as ``run_plans`` runs them)."""
    rows = []
    runtime = prepared.runtime
    for plan in plans:
        since = None
        if runtime is not None:
            runtime.reset()
            since = runtime.total_stats()
        row = fault_campaign._run_trial(prepared, workload, inp, ctx, plan,
                                        handoff)
        output = loop_output = []
        if row.trap is None:
            output = row.memory.read_global(*inp.output)
            loop_output = row.memory.read_global(*inp.loop_output)
        delta = runtime.stats_delta(since) if runtime is not None else None
        rows.append((row.trap, row.detected, [repr(v) for v in output],
                     [repr(v) for v in loop_output], row.steps,
                     row.region_steps, delta))
    return rows


def assert_equivalent(workload, prepared, inp, ctx, plans):
    scratch = dataclasses.replace(ctx, prefix=None)
    want = trial_rows(workload, prepared, inp, scratch, plans)
    got = trial_rows(workload, prepared, inp, ctx, plans)
    for plan, a, b in zip(plans, want, got):
        assert b == a, plan
    return want


CASES = [("sgemm", "AR50"), ("conv1d", "REPLAY2"), ("sgemm", "CKPT8"),
         ("kde", "SWIFT-R"), ("conv1d", "UNSAFE")]


class TestEquivalence:
    @pytest.mark.parametrize("weights", sorted(WEIGHTS))
    @pytest.mark.parametrize("workload_name,scheme", CASES,
                             ids=[f"{w}-{s}" for w, s in CASES])
    def test_trials_match_from_scratch(self, workload_name, scheme, weights):
        workload, prepared, inp, ctx = campaign(workload_name, scheme)
        plans = seeded_plans(SEED, workload.name, scheme, 0, 24,
                             ctx.region_steps, WEIGHTS[weights])
        assert_equivalent(workload, prepared, inp, ctx, plans)

    def test_campaign_tallies_match_capture_off(self, monkeypatch):
        """Through ``run_plans`` (which decides when to capture): the
        tallies equal a campaign whose capture is switched off."""
        workload, prepared, inp, ctx = campaign("sgemm", "AR50")
        plans = seeded_plans(SEED + 1, workload.name, "AR50", 0, 40,
                             ctx.region_steps, ADVERSARIAL_KIND_WEIGHTS)
        fresh = dataclasses.replace(ctx, prefix=None)
        fast = run_plans(prepared, workload, inp, fresh, plans)
        assert fresh.prefix is not None  # 40 plans repay a capture
        monkeypatch.setattr(fault_campaign, "_capture_prefix",
                            lambda *args: None)
        slow = run_plans(prepared, workload, inp,
                         dataclasses.replace(ctx, prefix=None), plans)
        assert fast.to_dict() == slow.to_dict()


class TestEdges:
    def test_step_zero_a_snapshot_step_and_the_last_step(self):
        workload, prepared, inp, ctx = campaign("sgemm", "AR50")
        marks = [snap.region_steps for snap in ctx.prefix.snapshots]
        assert len(marks) > 8 and marks == sorted(set(marks))
        steps = [0, marks[5], marks[5] - 1, marks[5] + 1,
                 ctx.region_steps - 1]
        plans = [FaultPlan(step, kind, bit=bit, pick=pick)
                 for step in steps
                 for kind, bit, pick in (("value", 3, 0.01), ("value", 62, 0.3),
                                         ("branch", 0, 0.0), ("addr", 7, 0.0),
                                         ("skip", 0, 0.0), ("cf", 0, 0.6))]
        assert_equivalent(workload, prepared, inp, ctx, plans)

    def test_hang_counts_the_skipped_prefix(self):
        workload, prepared, inp, ctx = campaign("conv1d", "UNSAFE")
        plans = seeded_plans(0, workload.name, "UNSAFE", 0, 200,
                             ctx.region_steps, ADVERSARIAL_KIND_WEIGHTS)
        scratch = dataclasses.replace(ctx, prefix=None)
        hangs = [plan for plan, row in zip(plans, trial_rows(
            workload, prepared, inp, scratch, plans))
            if row[0] == "hang"]
        assert hangs, "no hanging trial among the drawn plans"
        assert any(plan.step >= ctx.prefix.snapshots[1].region_steps
                   for plan in hangs)  # some hang really skips a prefix
        rows = assert_equivalent(workload, prepared, inp, ctx, hangs)
        assert all(row[4] == ctx.max_steps + 1 for row in rows)

    def test_one_snapshot_serves_trials_that_corrupt_state(self):
        """The first trial corrupts memory (an SDC) or the runtime's state
        (a caught fault) after restoring a snapshot; the snapshot itself
        stays intact, so the next trial restored from it still matches
        from scratch."""
        workload, prepared, inp, ctx = campaign("sgemm", "AR50")
        plans = seeded_plans(SEED, workload.name, "AR50", 0, 60,
                             ctx.region_steps)
        scratch = dataclasses.replace(ctx, prefix=None)
        rows = trial_rows(workload, prepared, inp, scratch, plans)
        golden = [repr(v) for v in ctx.golden]
        first = next(plan for plan, row in zip(plans, rows)
                     if row[0] is None and row[2] != golden
                     or row[6].recompute_mismatches)
        marks = [snap.region_steps for snap in ctx.prefix.snapshots]
        snap = ctx.prefix.snapshots[bisect.bisect_right(marks, first.step) - 1]
        before = pickle.dumps(snap)
        second = FaultPlan(snap.region_steps, "value", bit=0, pick=0.99)
        assert_equivalent(workload, prepared, inp, ctx, [first, second])
        assert pickle.dumps(snap) == before

    def test_snapshot_inside_a_callee_frame(self):
        workload, prepared, inp, ctx = campaign("sgemm", "AR50")
        nested = [snap for snap in ctx.prefix.snapshots if len(snap.frames) > 1]
        assert nested, "no snapshot was taken inside a callee"
        plans = [FaultPlan(snap.region_steps + k, "value", bit=52, pick=0.1)
                 for snap in nested[:4] for k in (0, 1, 9)]
        assert_equivalent(workload, prepared, inp, ctx, plans)


def handoff_rows(workload, prepared, inp, ctx, plans, handed_off):
    """Per-trial observables with the hand-off on, and per plan whether
    its trial finished on the compiled backend."""
    rows, moved = [], []
    for plan in plans:
        before = len(handed_off)
        rows += trial_rows(workload, prepared, inp, ctx, [plan], handoff=True)
        moved.append(len(handed_off) > before)
    return rows, moved


def assert_handoff_equivalent(workload, prepared, inp, ctx, plans, handed_off):
    want = trial_rows(workload, prepared, inp, ctx, plans)
    got, moved = handoff_rows(workload, prepared, inp, ctx, plans, handed_off)
    for plan, a, b in zip(plans, want, got):
        assert b == a, plan
    return want, moved


class TestHandoff:
    """A trial whose fault has fully acted finishes on the compiled
    backend with the rows the reference interpreter produces alone."""

    @pytest.mark.parametrize("weights", sorted(WEIGHTS))
    @pytest.mark.parametrize("workload_name,scheme", CASES,
                             ids=[f"{w}-{s}" for w, s in CASES])
    def test_rows_match_the_reference(self, handed_off, workload_name, scheme,
                                      weights):
        workload, prepared, inp, ctx = campaign(workload_name, scheme)
        plans = seeded_plans(SEED, workload.name, scheme, 0, 24,
                             ctx.region_steps, WEIGHTS[weights])
        _, moved = assert_handoff_equivalent(workload, prepared, inp, ctx,
                                             plans, handed_off)
        control = [m for plan, m in zip(plans, moved)
                   if plan.kind in CONTROL_KINDS]
        others = [m for plan, m in zip(plans, moved)
                  if plan.kind not in CONTROL_KINDS]
        assert not any(control)
        assert sum(others) > len(others) // 2

    def test_hangs_hand_off(self, handed_off):
        workload, prepared, inp, ctx = campaign("conv1d", "UNSAFE")
        plans = seeded_plans(0, workload.name, "UNSAFE", 0, 200,
                             ctx.region_steps, ADVERSARIAL_KIND_WEIGHTS)
        hangs = [plan for plan, row in zip(plans, trial_rows(
            workload, prepared, inp, ctx, plans)) if row[0] == "hang"]
        assert hangs, "no hanging trial among the drawn plans"
        rows, moved = assert_handoff_equivalent(workload, prepared, inp, ctx,
                                                hangs, handed_off)
        assert all(row[4] == ctx.max_steps + 1 for row in rows)
        assert any(moved)

    def test_fault_inside_a_callee(self, handed_off):
        """Faults in a callee entered before the trial's snapshot: the
        trial hands off inside the callee (its caller resumes at the
        snapshot's call site) or, once the callee has returned, as the
        caller re-enters its block after the call."""
        workload, prepared, inp, ctx = campaign("sgemm", "AR50")
        nested = [snap for snap in ctx.prefix.snapshots if len(snap.frames) > 1]
        plans = [FaultPlan(snap.region_steps + k, kind, bit=52, pick=0.1)
                 for snap in nested[:2] for k in range(48)
                 for kind in ("value", "addr", "branch")]
        assert_handoff_equivalent(workload, prepared, inp, ctx, plans,
                                  handed_off)
        assert any(len(state.frames) > 1 for state in handed_off)
        assert any(state.frames[-1].index > 0 for state in handed_off)

    @pytest.mark.parametrize("workload_name,scheme,weights", [
        ("sgemm", "AR50", (("value", 0.5), ("branch", 0.25), ("addr", 0.25))),
        ("conv1d", "UNSAFE", ADVERSARIAL_KIND_WEIGHTS)],
        ids=["sgemm-AR50", "conv1d-UNSAFE"])
    def test_batch_tail_lanes_hand_off(self, monkeypatch, workload_name,
                                       scheme, weights):
        """A slab no wider than ``SCALAR_CUTOFF`` sends every lane to the
        tail with its trigger pending.  A value, branch or addr lane then
        hands off once its fault has acted, a skip or cf lane builds no
        compiled executor, and every row equals the reference's."""
        workload, prepared, inp, ctx = campaign(workload_name, scheme)
        plans = seeded_plans(SEED, workload.name, scheme, 0, 90,
                             ctx.region_steps, weights)
        built, resumed = [], []

        class Recorded(CompiledExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

            def run(self, func_name, args=(), state=None):
                resumed.append(state is not None)
                return super().run(func_name, args, state=state)

        monkeypatch.setattr(prefix, "CompiledExecutor", Recorded)

        def rows(kind_plans, backend):
            return [
                (repr(row.value), row.trap, row.detected, row.caught,
                 row.steps, row.region_steps,
                 None if row.trap else
                 [repr(v) for v in row.memory.read_global(*inp.output)])
                for row in fault_campaign.trial_rows(
                    prepared, workload, inp, ctx, kind_plans, backend,
                    lanes=SCALAR_CUTOFF)]

        kinds = sorted({plan.kind for plan in plans})
        assert {"value", "branch", "addr"} <= set(kinds)
        for kind in kinds:
            kind_plans = [plan for plan in plans if plan.kind == kind]
            want = rows(kind_plans, "ref")
            assert not built
            assert rows(kind_plans, "batch") == want, kind
            if kind in CONTROL_KINDS:
                assert not built, kind
            else:
                assert resumed and all(resumed), kind
            built.clear()
            resumed.clear()


class TestCapture:
    def test_prefix_memory_is_a_small_diff(self):
        workload, prepared, inp, ctx = campaign("sgemm", "AR50")
        last = ctx.prefix.snapshots[-1]
        assert 0 < len(last.cells) < 1000
        assert ctx.prefix.events is None  # captured without a sink

    def test_one_trial_block_does_not_capture(self, monkeypatch):
        """A block whose plans' steps sum below one golden run (perfbench
        set-up's one-trial campaign) never pays for a capture."""
        workload, prepared, inp, ctx = campaign("sgemm", "AR50")
        fresh = dataclasses.replace(ctx, prefix=None)
        plans = seeded_plans(SEED, workload.name, "AR50", 0, 1,
                             ctx.region_steps)
        assert sum(p.step for p in plans) <= ctx.steps
        run_plans(prepared, workload, inp, fresh, plans)
        assert fresh.prefix is None

    def test_batch_never_captures(self):
        workload, prepared, inp, ctx = campaign("conv1d", "UNSAFE")
        fresh = dataclasses.replace(ctx, prefix=None)
        plans = seeded_plans(SEED, workload.name, "UNSAFE", 0, 30,
                             ctx.region_steps)
        run_plans(prepared, workload, inp, fresh, plans, backend="batch")
        assert fresh.prefix is None


@pytest.mark.slow
@pytest.mark.parametrize("workload_name,scheme,weights", [
    ("sgemm", "AR50", "default"), ("conv1d", "UNSAFE", "adversarial")])
def test_500_trials_match_from_scratch(workload_name, scheme, weights):
    workload, prepared, inp, ctx = campaign(workload_name, scheme)
    plans = seeded_plans(0, workload.name, scheme, 0, 500,
                         ctx.region_steps, WEIGHTS[weights])
    assert_equivalent(workload, prepared, inp, ctx, plans)


class TestGoldenContext:
    def test_hang_budget_comes_from_the_golden_run(self):
        """The golden run's step count sets ``max_steps`` (no separate
        counting run): region steps, steps and the budget equal a
        separate clean run's, for every workload and scheme."""
        for workload in ALL_WORKLOADS:
            inp = workload.test_inputs(1, seed=SEED + 17, scale=SCALE)[0]
            for descriptor in all_descriptors():
                prepared = prepare(workload, descriptor.name)
                ctx = campaign_context(prepared, workload, inp)
                if prepared.runtime is not None:
                    prepared.runtime.reset()
                clean = make_executor(
                    prepared.module, backend="ref", fault_region=ctx.region,
                    memory=workload.fresh_memory(prepared.module, inp))
                clean.register_intrinsics(prepared.intrinsics)
                clean.run(prepared.main, inp.args)
                assert (ctx.region_steps, ctx.steps, ctx.max_steps) == (
                    clean.region_steps, clean.steps,
                    max(clean.steps * HANG_FACTOR, 100_000)), \
                    (workload.name, descriptor.name)


class TestProfilesStayReadOnly:
    @pytest.mark.parametrize("backend", ["ref", "batch"])
    def test_campaign_leaves_profiles_unchanged(self, backend):
        """Every trial, fork and snapshot shares the trained profiles;
        memo lookups are counted in the loop's stats, so a campaign
        leaves each profile's serialized form as it found it."""
        workload = get_workload("blackscholes")
        profiles = Harness(workload, scale=SCALE, timing=False).profiles_for(0.5)
        assert any(p.memo is not None for p in profiles.values())
        before = (profiles_to_json(profiles), pickle.dumps(profiles))
        set_default_backend(backend)
        try:
            result = run_campaign(workload, "AR50", 30, seed=SEED, scale=SCALE,
                                  profiles=profiles)
        finally:
            set_default_backend(None)
        assert result.trials == 30
        assert (profiles_to_json(profiles), pickle.dumps(profiles)) == before
