"""Golden-prefix fast-forwarding of reference-interpreter trials, and
their hand-off to the compiled backend.

A fast-forwarded trial restores the latest golden-run snapshot at or
before its fault step and continues on the reference interpreter.  Every
per-trial observable — trap, detection, outputs, loop outputs, ``steps``,
``region_steps`` and the runtime's stats delta (hence ``caught``) — must
equal the from-scratch trial's, for stateless and stateful schemes and
for every fault kind; and it must stay the same when the trial settles
as the golden row without running (a masked value flip) or finishes on
the compiled backend from the first block entry where its fault has
fully acted.
"""
import bisect
import copy
import dataclasses
import pickle
import sys
from functools import partial

import pytest

from repro.analysis.liveness import Liveness
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
from repro.obs.events import TRIAL_OUTCOME, sink_installed
from repro.obs.sinks import MemorySink
from repro.pipeline.registry import all_descriptors
from repro.runtime import prefix
from repro.runtime.backend import make_executor, set_default_backend
from repro.runtime.batch import SCALAR_CUTOFF
from repro.runtime.compiler import CompiledExecutor
from repro.runtime.interpreter import Interpreter
from repro.runtime.faults import (
    ADVERSARIAL_KIND_WEIGHTS, CONTROL_KINDS, DEFAULT_KIND_WEIGHTS, FaultPlan,
    victim_index)
from repro.workloads import ALL_WORKLOADS, get_workload

SCALE = 0.35
SEED = 3
WEIGHTS = {"default": DEFAULT_KIND_WEIGHTS, "adversarial": ADVERSARIAL_KIND_WEIGHTS}

_CAMPAIGNS = {}


def campaign(workload_name, scheme):
    """(workload, prepared, inp, ctx with its golden prefix), cached."""
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


@pytest.fixture
def settled(monkeypatch):
    """One entry per trial that settled as the golden row without
    running (its plan's victim was masked), in order."""
    rows = []
    golden_settle = prefix.GoldenPrefix.settle

    def recorded(self, fresh_memory, runtime=None):
        rows.append(golden_settle(self, fresh_memory, runtime))
        return rows[-1]

    monkeypatch.setattr(prefix.GoldenPrefix, "settle", recorded)
    return rows


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

    def test_campaign_tallies_match_capture_off(self):
        """Through ``run_plans``: the tallies equal a campaign whose
        context has no golden prefix (every trial from scratch)."""
        workload, prepared, inp, ctx = campaign("sgemm", "AR50")
        plans = seeded_plans(SEED + 1, workload.name, "AR50", 0, 40,
                             ctx.region_steps, ADVERSARIAL_KIND_WEIGHTS)
        fast = run_plans(prepared, workload, inp, ctx, plans)
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


def handoff_rows(workload, prepared, inp, ctx, plans, handed_off,
                 settled=()):
    """Per-trial observables with the hand-off on, and per plan whether
    its trial finished on the compiled backend and whether it settled
    without running (recorded in *settled*)."""
    rows, moved, settles = [], [], []
    for plan in plans:
        before, settles_before = len(handed_off), len(settled)
        rows += trial_rows(workload, prepared, inp, ctx, [plan], handoff=True)
        moved.append(len(handed_off) > before)
        settles.append(len(settled) > settles_before)
    return rows, moved, settles


def no_settling(ctx):
    """*ctx* over a copy of its golden prefix that settles no plan: every
    trial runs, a masked one to a hand-off."""
    golden = copy.copy(ctx.prefix)
    golden.masked = lambda plan: False
    return dataclasses.replace(ctx, prefix=golden)


def assert_handoff_equivalent(workload, prepared, inp, ctx, plans, handed_off,
                              settled=()):
    want = trial_rows(workload, prepared, inp, ctx, plans)
    got, moved, settles = handoff_rows(
        workload, prepared, inp, ctx, plans, handed_off, settled)
    for plan, a, b in zip(plans, want, got):
        assert b == a, plan
    return want, moved, settles


class TestHandoff:
    """A trial whose fault has fully acted finishes on the compiled
    backend, with the rows the reference interpreter produces alone."""

    @pytest.mark.parametrize("weights", sorted(WEIGHTS))
    @pytest.mark.parametrize("workload_name,scheme", CASES,
                             ids=[f"{w}-{s}" for w, s in CASES])
    def test_rows_match_the_reference(self, handed_off, settled,
                                      workload_name, scheme, weights):
        """Every trial that the reference does not end first (a trap or
        detection) takes exactly one shortcut: it settles as the golden
        row without running (a masked value flip) or hands off, and some
        settle.  That includes skip and cf trials: none of them leaves a
        live register unwritten here without trapping.  With settlement
        off, the masked trials run and hand off too, with the same
        rows."""
        workload, prepared, inp, ctx = campaign(workload_name, scheme)
        plans = seeded_plans(SEED, workload.name, scheme, 0, 24,
                             ctx.region_steps, WEIGHTS[weights])
        rows, moved, settles = assert_handoff_equivalent(
            workload, prepared, inp, ctx, plans, handed_off, settled)
        assert not any(m and s for m, s in zip(moved, settles))
        # the rest trapped or were caught on the reference first
        untrapped = [trap is None and not detected
                     for trap, detected, *_ in rows]
        assert all(m or s for m, s, free in zip(moved, settles, untrapped)
                   if free)
        assert any(settles)
        assert all(plan.kind == "value" for plan, s in zip(plans, settles) if s)
        if weights == "adversarial":
            assert any(plan.kind in CONTROL_KINDS for plan in plans)

        got, moved, unsettled = handoff_rows(
            workload, prepared, inp, no_settling(ctx), plans, handed_off,
            settled)
        assert got == rows and not any(unsettled)
        assert all(m for m, free in zip(moved, untrapped) if free)

    @pytest.mark.parametrize("weights", sorted(WEIGHTS))
    @pytest.mark.parametrize("workload_name,scheme", [
        ("sgemm", "AR50"), ("kde", "SWIFT-R")], ids=["sgemm-AR50", "kde-SWIFT-R"])
    def test_value_flips_hand_off_at_the_next_block_entry(
            self, handed_off, settled, workload_name, scheme, weights):
        """A value flip has fully acted once it has landed, so a running
        trial whose row is untrapped hands off at the first block entry
        after its fault step: no later than the end of the block holding
        that step, and with the row the reference produces alone."""
        workload, prepared, inp, ctx = campaign(workload_name, scheme)
        golden = ctx.prefix
        plans = [plan for plan in seeded_plans(
            SEED, workload.name, scheme, 0, 60, ctx.region_steps,
            WEIGHTS[weights]) if plan.kind == "value"]
        entries = [seg[3] for seg in golden.segments if seg[2] == 0]
        starts = [seg[3] for seg in golden.segments]
        rows, moved, settles = assert_handoff_equivalent(
            workload, prepared, inp, ctx, plans, handed_off, settled)
        exported = iter(handed_off)
        checked = 0
        for plan, row, m, s in zip(plans, rows, moved, settles):
            state = next(exported) if m else None
            if s or row[0] is not None or row[1]:
                continue
            assert m, plan
            entry = entries[bisect.bisect_right(entries, plan.step)]
            assert state.region_steps == entry, plan
            func, label, _, _ = golden.segments[
                bisect.bisect_right(starts, plan.step) - 1]
            block = golden.decoded.funcs[func][1][label]
            assert state.region_steps - plan.step <= len(block), plan
            checked += 1
        assert checked >= 5

    def test_hangs_hand_off(self, handed_off):
        workload, prepared, inp, ctx = campaign("conv1d", "UNSAFE")
        plans = seeded_plans(0, workload.name, "UNSAFE", 0, 200,
                             ctx.region_steps, ADVERSARIAL_KIND_WEIGHTS)
        hangs = [plan for plan, row in zip(plans, trial_rows(
            workload, prepared, inp, ctx, plans)) if row[0] == "hang"]
        assert hangs, "no hanging trial among the drawn plans"
        rows, moved, _ = assert_handoff_equivalent(workload, prepared, inp,
                                                   ctx, hangs, handed_off)
        assert all(row[4] == ctx.max_steps + 1 for row in rows)
        assert any(moved)

    def test_fault_inside_a_callee(self, handed_off):
        """Faults in a callee entered before the trial's snapshot: the
        trial hands off inside the callee (its caller resumes at the
        snapshot's call site) or, once the callee has returned, as the
        caller re-enters its block after the call.  The hand-off points
        are checked with settlement off, where every trial runs."""
        workload, prepared, inp, ctx = campaign("sgemm", "AR50")
        nested = [snap for snap in ctx.prefix.snapshots if len(snap.frames) > 1]
        plans = [FaultPlan(snap.region_steps + k, kind, bit=52, pick=0.1)
                 for snap in nested[:2] for k in range(48)
                 for kind in ("value", "addr", "branch")]
        assert_handoff_equivalent(workload, prepared, inp, ctx, plans,
                                  handed_off)
        handed_off.clear()
        assert_handoff_equivalent(workload, prepared, inp, no_settling(ctx),
                                  plans, handed_off)
        assert any(len(state.frames) > 1 for state in handed_off)
        assert any(state.frames[-1].index > 0 for state in handed_off)

    @pytest.mark.parametrize("workload_name,scheme,weights", [
        ("sgemm", "AR50", (("value", 0.5), ("branch", 0.25), ("addr", 0.25))),
        ("conv1d", "UNSAFE", ADVERSARIAL_KIND_WEIGHTS)],
        ids=["sgemm-AR50", "conv1d-UNSAFE"])
    def test_batch_tail_lanes_hand_off(self, monkeypatch, workload_name,
                                       scheme, weights):
        """A slab no wider than ``SCALAR_CUTOFF`` sends every value lane to
        the tail with its trigger pending, where it hands off once its
        flip has fired.  Every other trial runs as on the default backend
        and some of each kind hand off too; every row equals the
        reference's."""
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
            assert resumed and all(resumed), kind
            if kind == "value":
                assert len(resumed) == len(kind_plans)
            built.clear()
            resumed.clear()


class TestCapture:
    def test_prefix_memory_is_a_small_diff(self):
        workload, prepared, inp, ctx = campaign("sgemm", "AR50")
        last = ctx.prefix.snapshots[-1]
        assert 0 < len(last.cells) < 1000
        # recorded without a sink, so traced trials can replay them
        assert ctx.prefix.events

    def test_snapshots_are_evenly_spaced(self):
        """Without knowing the run's length in advance the capture keeps
        at most SNAPSHOTS snapshots: the first block entry at or past
        each multiple of one power-of-two spacing."""
        workload, prepared, inp, ctx = campaign("conv1d", "UNSAFE")
        marks = [snap.region_steps for snap in ctx.prefix.snapshots]
        assert prefix.SNAPSHOTS // 2 < len(marks) <= prefix.SNAPSHOTS
        entries = sorted({seg[3] for seg in ctx.prefix.segments if seg[2] == 0})

        def first_entries(every):
            return sorted({entries[bisect.bisect_left(entries, m)]
                           for m in range(0, marks[-1] + 1, every)})

        assert any(first_entries(1 << k) == marks for k in range(20))

    def test_segments_name_every_region_step(self):
        """Expanded, the segments give one instruction per region step
        (the sites O6 injects at and the windows sections own)."""
        workload, prepared, inp, ctx = campaign("sgemm", "AR50")
        windows = list(ctx.prefix.windows())
        assert windows[0][3] == 0
        for (_, _, _, start, length), nxt in zip(windows, windows[1:] + [None]):
            assert length > 0
            assert (nxt[3] if nxt else ctx.region_steps) == start + length

    def test_one_trial_block_does_not_capture(self, monkeypatch):
        """Trial blocks never capture: the context's golden run is the
        campaign's only one, on every backend."""
        workload, prepared, inp, ctx = campaign("sgemm", "AR50")

        def no_capture(*args):
            raise AssertionError("a trial block captured")

        monkeypatch.setattr(fault_campaign, "capture_prefix", no_capture)
        plans = seeded_plans(SEED, workload.name, "AR50", 0, 1,
                             ctx.region_steps)
        run_plans(prepared, workload, inp, ctx, plans)

    def test_batch_never_captures(self, monkeypatch):
        workload, prepared, inp, ctx = campaign("conv1d", "UNSAFE")
        assert ctx.prefix is not None  # batch contexts hold one too

        def no_capture(*args):
            raise AssertionError("a batch block captured")

        monkeypatch.setattr(fault_campaign, "capture_prefix", no_capture)
        plans = seeded_plans(SEED, workload.name, "UNSAFE", 0, 30,
                             ctx.region_steps)
        run_plans(prepared, workload, inp, ctx, plans, backend="batch")


class _Landed(Exception):
    """Raised by :func:`landing`'s probe once it has classified a flip."""


def landing(interp):
    """Where the value flip *interp* is injecting lands, read off the
    interpreter's own frames and the Python frames running them:
    ``"empty"`` (a slot of the register file that holds no register),
    or ``"dead"`` / ``"live"`` by its victim's liveness — in the
    innermost frame before the instruction about to run, in an outer
    frame where it resumes, less its pending call's dest."""
    frames = interp._frames
    victim = victim_index(sum(map(len, frames)), interp.fault_plan.pick)
    if victim is None:
        return "empty"
    # (function, label, resume index) per outer frame, outermost first:
    # those of a resumed state, then one per _exec paused at its call
    where, execs = [], []
    py = sys._getframe(2)
    while py is not None and py.f_code is not _START:
        if py.f_code is _EXEC:
            execs.append(py.f_locals)
        py = py.f_back
    if py is not None:
        state_frames, depth = py.f_locals["frames"], py.f_locals["depth"]
        for frame in state_frames[:depth]:
            where.append((frame.func, frame.label, frame.index))
    execs.reverse()
    for local in execs[:-1]:
        where.append((local["fname"], local["label"], local["extra"][1]))
    inner = execs[-1]
    block = inner["blocks"][inner["label"]]
    at = [i for i, instr in enumerate(block)
          if instr[2] is inner["ops"] and instr[3] is inner["extra"]
          and instr[1] == inner["dest"]]
    assert len(at) == 1 and len(where) + 1 == len(frames)
    for depth, regs in enumerate(frames):
        if victim < len(regs):
            break
        victim -= len(regs)
    name = sorted(regs)[victim]
    functions = interp.module.functions
    if depth == len(where):
        live = liveness(functions[inner["fname"]]).live_at(inner["label"], at[0])
    else:
        fname, label, index = where[depth]
        func = functions[fname]
        call = func.blocks[label].instrs[index - 1]
        live = liveness(func).live_at(label, index) - {
            call.dest.name if call.dest else None}
    return "live" if name in live else "dead"


_EXEC = Interpreter._exec.__code__
_START = Interpreter._start.__code__
_LIVENESS = {}


def liveness(func):
    if func not in _LIVENESS:
        _LIVENESS[func] = Liveness(func)
    return _LIVENESS[func]


class TestSettle:
    """A value flip whose victim is an empty slot or a dead register
    settles as the golden row without running, exactly where the
    reference interpreter sees such a victim."""

    @staticmethod
    def plans(ctx, prepared, workload, scheme):
        """Seeded plans, and 200 evenly spaced picks (one or more per
        slot of the stack) at two golden snapshot steps and, where the
        region calls a function, at a late step of a callee's entry
        block and at the first step after a return; and whether the
        region does."""
        golden = ctx.prefix
        plans = seeded_plans(SEED, workload.name, scheme, 0, 40,
                             ctx.region_steps)
        marks = [snap.region_steps for snap in golden.snapshots
                 if snap.region_steps < ctx.region_steps]
        steps = [marks[len(marks) // 2], marks[-1]]
        windows = list(golden.windows())
        half = len(windows) // 2
        callee = [w for w in windows[half:]
                  if w[0] != prepared.main and w[2] == 0 and w[4] > 2]
        returned = [w for w in windows[half:] if w[2] > 0]
        if callee:
            steps.append(callee[0][3] + callee[0][4] - 1)
        if returned:
            steps.append(returned[0][3])
        sweep = [FaultPlan(step, "value", bit=5, pick=(i + 0.5) / 200)
                 for step in steps for i in range(200)]
        return plans + sweep, bool(callee and returned)

    @pytest.mark.parametrize("workload_name,scheme", [
        ("sgemm", "UNSAFE"), ("conv1d", "AR50"), ("kde", "SWIFT-R")])
    def test_settled_trials_are_the_masked_victims(
            self, monkeypatch, settled, workload_name, scheme):
        workload, prepared, inp, ctx = campaign(workload_name, scheme)
        plans, calls = self.plans(ctx, prepared, workload, scheme)
        # only RSkip outlines a loop body it calls from the region
        assert calls == (scheme == "AR50")

        seen = []

        def probe(interp, regs):
            if interp.fault_plan.kind != "value":
                seen.append(None)
            else:
                seen.append(landing(interp))
            raise _Landed

        with monkeypatch.context() as patch:
            patch.setattr(Interpreter, "_inject", probe)
            for plan in plans:
                with pytest.raises(_Landed):
                    fault_campaign._run_trial(prepared, workload, inp, ctx,
                                              plan, False)
        # the default path, with every trial that does not settle stopped
        # before it runs
        monkeypatch.setattr(fault_campaign, "finish",
                            lambda *args, **kwargs: prefix.TrialRow(
                                None, 0, 0, "hang", False, None))
        settles = []
        for plan in plans:
            before = len(settled)
            fault_campaign._run_trial(prepared, workload, inp, ctx, plan, True)
            settles.append(len(settled) > before)
        masked = [where in ("empty", "dead") for where in seen]
        assert settles == masked
        assert {"dead", "live"} <= set(seen)
        if scheme == "UNSAFE":
            assert "empty" in seen


    @staticmethod
    def split(ctx, workload, scheme):
        """Seeded plans of *ctx*'s campaign that settle, and that run."""
        plans = seeded_plans(SEED, workload.name, scheme, 0, 40,
                             ctx.region_steps)
        masked = [plan for plan in plans if ctx.prefix.masked(plan)]
        return masked, [plan for plan in plans if plan not in masked]

    def test_settled_trials_share_one_row_and_end_with_the_golden_stats(
            self, settled):
        """Every settled trial returns the prefix's one row, its
        ``caught`` the from-scratch trial's, and leaves each loop runtime
        holding its own copy of the golden run's final statistics,
        whatever the trial before it left there: no reset comes first."""
        workload, prepared, inp, ctx = campaign("sgemm", "AR50")
        golden, runtime = ctx.prefix, prepared.runtime
        masked, running = self.split(ctx, workload, "AR50")
        assert len(masked) >= 3 and running
        scratch = dataclasses.replace(ctx, prefix=None)
        rows = []
        for plan in masked[:3]:
            fault_campaign._run_trial(prepared, workload, inp, ctx,
                                      running[0], True)
            for loop in runtime.loops.values():  # as a faulted trial may
                loop.stats = dataclasses.replace(
                    loop.stats, elements=loop.stats.elements + 1)
            rows.append(fault_campaign._run_trial(prepared, workload, inp,
                                                  ctx, plan, True))
            for ctx_id, loop in runtime.loops.items():
                want = golden.final.stats[ctx_id]
                assert loop.stats == want and loop.stats is not want
            want = fault_campaign._run_trial(prepared, workload, inp,
                                             scratch, plan, False)
            assert rows[-1].caught == want.caught
        assert len(settled) == 3 and all(row is rows[0] for row in rows)

        # a golden run that counted a recompute mismatch marks every
        # settled row caught
        caught = copy.copy(golden)
        caught.settled = None
        caught.final = golden.final._replace(stats={
            ctx_id: dataclasses.replace(stats, recompute_mismatches=1)
            for ctx_id, stats in golden.final.stats.items()})
        fresh_memory = partial(workload.fresh_memory, prepared.module, inp)
        assert caught.settle(fresh_memory, runtime).caught
        assert not golden.settle(fresh_memory, runtime).caught

    def test_each_settled_trial_replays_the_golden_events(self):
        """Under tracing, each settled trial re-emits the golden run's
        events and is tallied with its own trial outcome, though its
        outputs are compared once."""
        workload, prepared, inp, ctx = campaign("sgemm", "AR50")
        masked, _ = self.split(ctx, workload, "AR50")
        golden = [(event.kind, event.loop, event.payload)
                  for event in ctx.prefix.events]
        assert golden
        sink = MemorySink(capacity=None)
        with sink_installed(sink):
            result = run_plans(prepared, workload, inp, ctx, masked[:3],
                               start=10, backend="compiled")
        events = [(event.kind, event.loop, event.payload)
                  for event in sink.events]
        outcomes = [i for i, event in enumerate(events)
                    if event[0] == TRIAL_OUTCOME]
        assert len(outcomes) == 3 and result.trials == 3
        assert [events[i][2]["trial"] for i in outcomes] == [10, 11, 12]
        starts = [0] + [i + 1 for i in outcomes[:-1]]
        for start, end in zip(starts, outcomes):
            assert events[start:end] == golden
        assert ctx.settled_class[0] is ctx.prefix.settled


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
        counting run): region steps, steps and the budget equal a clean
        run's on the compiled backend, for every workload and scheme —
        so the engines' step counters agree on every program too."""
        for workload in ALL_WORKLOADS:
            inp = workload.test_inputs(1, seed=SEED + 17, scale=SCALE)[0]
            for descriptor in all_descriptors():
                prepared = prepare(workload, descriptor.name)
                ctx = campaign_context(prepared, workload, inp)
                if prepared.runtime is not None:
                    prepared.runtime.reset()
                clean = make_executor(
                    prepared.module, backend="compiled",
                    fault_region=ctx.region,
                    memory=workload.fresh_memory(prepared.module, inp))
                assert isinstance(clean, CompiledExecutor)
                clean.register_intrinsics(prepared.intrinsics)
                clean.run(prepared.main, inp.args)
                assert (ctx.region_steps, ctx.prefix.result.steps,
                        ctx.max_steps) == (
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
