"""Batch-backend campaigns and chunk merging.

The lane-vectorized block runner must tally byte-identically to the
serial one — same trials, same seeds, same `CampaignResult` — for both
stateless and runtime-stateful schemes, through both the direct block
API and the `--backend batch` routing in `run_campaign`.  Plus the
`CampaignResult.merge` regression: chunks from different campaign
configurations (mismatched non-zero ``region_steps``) must refuse to
merge instead of silently keeping the first chunk's value.
"""
from contextlib import nullcontext

import pytest

from repro.eval import Harness
from repro.eval.fault_campaign import (
    CampaignResult,
    campaign_context,
    campaign_input,
    run_campaign,
    run_trial_block,
    run_trial_block_batch,
    seeded_plans,
)
from repro.eval.schemes import prepare
from repro.obs.events import sink_installed
from repro.obs.sinks import MemorySink
from repro.pipeline.registry import canonical_scheme
from repro.runtime.backend import set_default_backend
from repro.runtime import batch as batch_mod
from repro.runtime.batch import BatchExecutor, fork_lanes
from repro.runtime.errors import TRIAL_TRAPS, classify_trap
from repro.runtime.faults import ADVERSARIAL_KIND_WEIGHTS
from repro.runtime.interpreter import Interpreter
from repro.workloads import get_workload

SCALE = 0.35
SEED = 5


class TestMergeRegression:
    def _chunk(self, trials, region_steps):
        result = CampaignResult("conv1d", "UNSAFE", trials)
        result.region_steps = region_steps
        return result

    def test_mismatched_region_steps_rejected(self):
        """Chunks with different non-zero region_steps come from different
        campaign configurations; merging them used to silently keep the
        first chunk's value and mix incompatible tallies."""
        a = self._chunk(10, 1400)
        with pytest.raises(ValueError, match="region_steps"):
            a.merge(self._chunk(10, 900))
        assert a.trials == 20  # counts folded before the guard fired

    def test_matching_region_steps_merge(self):
        a = self._chunk(10, 1400)
        a.merge(self._chunk(15, 1400))
        assert (a.trials, a.region_steps) == (25, 1400)

    def test_zero_region_steps_adopted(self):
        a = self._chunk(10, 0)
        a.merge(self._chunk(10, 1400))
        assert a.region_steps == 1400
        a.merge(self._chunk(5, 0))  # resumed empty chunk: still fine
        assert (a.trials, a.region_steps) == (25, 1400)


def _blocks(workload_name, scheme_name, count, kind_weights=None,
            **batch_kwargs):
    workload = get_workload(workload_name)
    scheme = canonical_scheme(scheme_name, None)
    inp = workload.test_inputs(1, seed=SEED + 17, scale=SCALE)[0]
    prepared = prepare(workload, scheme)
    ctx = campaign_context(prepared, workload, inp)
    serial_kwargs = {}
    if kind_weights is not None:
        serial_kwargs["kind_weights"] = kind_weights
        batch_kwargs["kind_weights"] = kind_weights
    serial = run_trial_block(
        prepared, workload, inp, ctx, scheme, SEED, 0, count, **serial_kwargs)
    batch = run_trial_block_batch(
        prepared, workload, inp, ctx, scheme, SEED, 0, count, **batch_kwargs)
    return serial, batch


class TestBatchBlock:
    def test_stateless_scheme_tallies_identical(self):
        serial, batch = _blocks("conv1d", "UNSAFE", 24)
        assert batch.to_dict() == serial.to_dict()

    def test_stateful_scheme_tallies_identical(self):
        """RSkip carries per-trial predictor state; the batch runner must
        keep trials isolated (per-lane runtime forks) so ``caught``
        and the false-negative split still match the serial block."""
        serial, batch = _blocks("conv1d", "AR50", 16)
        assert batch.to_dict() == serial.to_dict()

    def test_single_lane_batch_equals_plain_trial(self):
        serial, batch = _blocks("conv1d", "UNSAFE", 1)
        assert batch.to_dict() == serial.to_dict()

    def test_slab_width_does_not_change_tallies(self):
        """Trials are seeded per-trial, so slicing one block into many
        small lane slabs must reproduce the single-slab tallies."""
        serial, batch = _blocks("conv1d", "UNSAFE", 17, lanes=7)
        assert batch.to_dict() == serial.to_dict()


class TestLaneRuntimes:
    """Stateful lanes run forks of the handed program's runtime."""

    def test_lanes_keep_the_trained_runtime(self):
        """Profiles reach the batch lanes through ``prepared`` alone.
        Lanes rebuilt by re-preparing the workload without the profiles
        ran untrained predictors, and trial 25 came out CORRECT on the
        batch backend but HANG serially."""
        workload = get_workload("conv1d")
        profiles = Harness(workload, scale=SCALE, timing=False).profiles_for(0.5)
        inp = workload.test_inputs(1, seed=17, scale=SCALE)[0]
        prepared = prepare(workload, "AR50", None, profiles)
        ctx = campaign_context(prepared, workload, inp)
        serial = run_trial_block(prepared, workload, inp, ctx, "AR50", 0, 0, 40)
        batch = run_trial_block_batch(
            prepared, workload, inp, ctx, "AR50", 0, 0, 40)
        assert serial.to_dict()["tallies"] == {"CORRECT": 39, "HANG": 1}
        assert batch.to_dict() == serial.to_dict()

    @pytest.mark.parametrize("scheme_name", ["AR50", "REPLAY2", "CKPT8"])
    def test_no_per_lane_prepare(self, monkeypatch, scheme_name):
        workload = get_workload("conv1d")
        scheme = canonical_scheme(scheme_name, None)
        inp = workload.test_inputs(1, seed=SEED + 17, scale=SCALE)[0]
        prepared = prepare(workload, scheme)
        ctx = campaign_context(prepared, workload, inp)

        def no_prepare(*args, **kwargs):
            raise AssertionError("batch lanes must not re-prepare")

        monkeypatch.setattr("repro.eval.fault_campaign.prepare", no_prepare)
        serial = run_trial_block(
            prepared, workload, inp, ctx, scheme, SEED, 0, 16).to_dict()
        for lanes in (1, 7, None):
            kwargs = {} if lanes is None else {"lanes": lanes}
            batch = run_trial_block_batch(
                prepared, workload, inp, ctx, scheme, SEED, 0, 16, **kwargs)
            assert batch.to_dict() == serial, lanes


class TestSharedDecode:
    def test_slabs_share_one_slot_view(self, monkeypatch):
        """A campaign decodes its program once: the lanes of every slab
        run the slot view of the context's own decoded program."""
        workload = get_workload("conv1d")
        inp = workload.test_inputs(1, seed=SEED + 17, scale=SCALE)[0]
        prepared = prepare(workload, "UNSAFE")
        ctx = campaign_context(prepared, workload, inp)
        frames = []
        executors = set()

        class Frame(batch_mod._Frame):
            __slots__ = ()

            def __init__(self, fname, blocks, *rest):
                super().__init__(fname, blocks, *rest)
                frames.append((fname, blocks))

        real_run = BatchExecutor.run

        def run(self, *args):
            executors.add(self)
            return real_run(self, *args)

        monkeypatch.setattr(batch_mod, "_Frame", Frame)
        monkeypatch.setattr(BatchExecutor, "run", run)
        run_trial_block_batch(prepared, workload, inp, ctx, "UNSAFE", SEED,
                              0, 24, lanes=12)
        assert len(executors) == 2 and frames
        functions = prepared.module.functions
        for fname, blocks in frames:
            assert blocks is ctx.decoded.slotted(functions[fname])[1], fname


class TestSharedRuntime:
    """Lockstep lanes share one runtime until their calls diverge."""

    def test_lanes_call_the_runtime_once_per_group(self):
        """On a conv1d AR50 slab of the value flips among 25 trials, lanes
        sharing their group's runtime make under a fifth of the per-lane
        calls that lanes on their own runtimes from the start make, with
        the same results and the same runtime events in the same order."""
        workload = get_workload("conv1d")
        profiles = Harness(workload, scale=SCALE, timing=False).profiles_for(0.5)
        inp = workload.test_inputs(1, seed=17, scale=SCALE)[0]
        prepared = prepare(workload, "AR50", None, profiles)
        ctx = campaign_context(prepared, workload, inp)
        plans = [plan for plan in seeded_plans(0, "conv1d", "AR50", 0, 25,
                                               ctx.region_steps)
                 if plan.kind == "value"]

        def run(traced, **lanes):
            executor = BatchExecutor(
                prepared.module, workload.fresh_memory(prepared.module, inp),
                len(plans), fault_plans=plans, fault_region=ctx.region,
                max_steps=ctx.max_steps, **lanes)
            sink = MemorySink(capacity=None)
            with sink_installed(sink) if traced else nullcontext():
                results = executor.run(prepared.main, inp.args)
            events = [(e.kind, e.loop, e.payload) for e in sink.events]
            return executor, [(r.trap, r.detected, r.steps, r.region_steps,
                               r.value) for r in results], events

        runtime = prepared.runtime
        shared, got, shared_events = run(
            True, runtimes=fork_lanes(runtime, len(plans)))
        private, want, private_events = run(True, intrinsics=[
            rt.intrinsics() for rt in fork_lanes(runtime, len(plans))])
        assert got == want
        assert shared_events == private_events
        assert len(shared_events) > len(plans)
        assert (private.group_calls, private.state_copies) == (0, 0)
        assert shared.group_calls > 0 and shared.state_copies > 0
        assert shared.lane_calls < 0.2 * private.lane_calls
        untraced, _, _ = run(False, runtimes=fork_lanes(runtime, len(plans)))
        assert (untraced.group_calls, untraced.lane_calls,
                untraced.state_copies) == (0, 0, 0)


class TestTrapStepCounts:
    """O5 compares step counts even for trapped lanes, but its fuzzed
    programs never trapped a compiled tail lane inside a fused segment.
    Trials 163, 187 and 192 of this sgemm AR50 campaign do: each
    segfaults after its value flip fired, on the compiled backend, and a
    count taken per segment instead of at the trapping instruction left
    their region steps short by 1, 1 and 9.  The slabs hold the value
    flips among trials [start, start + 25): lanes carry no other kind."""

    @staticmethod
    def slab(scheme, start):
        """(reference, lane) observations of the value flips among trials
        [start, start + 25): trap, detection, both step counters and the
        runtime's stats delta."""
        workload = get_workload("sgemm")
        seed = 1
        profiles = None
        if scheme == "AR50":
            profiles = Harness(workload, scale=SCALE, timing=False).profiles_for(0.5)
        inp = campaign_input(workload, seed, SCALE)
        prepared = prepare(workload, scheme, None, profiles)
        ctx = campaign_context(prepared, workload, inp)
        plans = [plan for plan in seeded_plans(seed, "sgemm", scheme, start,
                                               25, ctx.region_steps)
                 if plan.kind == "value"]
        runtime = prepared.runtime
        want = []
        for plan in plans:
            runtime.reset()
            before = runtime.total_stats()
            interp = Interpreter(
                prepared.module, memory=workload.fresh_memory(prepared.module, inp),
                max_steps=ctx.max_steps, fault_plan=plan, fault_region=ctx.region)
            interp.register_intrinsics(prepared.intrinsics)
            trap, detected = None, False
            try:
                interp.run(prepared.main, inp.args)
            except TRIAL_TRAPS as exc:
                trap, detected = classify_trap(exc)
            want.append((trap, detected, interp.steps, interp.region_steps,
                         runtime.stats_delta(before)))
        # lanes as the batch backend builds them: one runtime fork each
        runtimes = fork_lanes(runtime, len(plans))
        befores = [rt.total_stats() for rt in runtimes]
        executor = BatchExecutor(
            prepared.module, workload.fresh_memory(prepared.module, inp),
            len(plans), fault_plans=plans, fault_region=ctx.region,
            max_steps=ctx.max_steps, runtimes=runtimes)
        results = executor.run(prepared.main, inp.args)
        got = [(r.trap, r.detected, r.steps, r.region_steps, rt.stats_delta(b))
               for r, rt, b in zip(results, runtimes, befores)]
        return want, got

    @pytest.mark.parametrize("start", [150, 175])
    @pytest.mark.parametrize("scheme", ["AR50", "REPLAY2", "CKPT8"])
    def test_slab_lanes_count_like_the_reference(self, scheme, start):
        """Each lane also ends with its serial trial's runtime statistics,
        whether it retired, finished or left lockstep while sharing its
        group's runtime or after it had its own."""
        want, got = self.slab(scheme, start)
        assert got == want
        if scheme == "AR50":
            assert sum(w[0] == "segfault" for w in want) > 0

    @pytest.mark.parametrize("scheme,start", [
        ("AR50", 60), ("REPLAY2", 175), ("CKPT8", 150)])
    def test_lanes_whose_flip_is_caught_keep_their_statistics(self, scheme,
                                                              start):
        """Slabs holding a value flip that exact validation catches: the
        recovering lane ends with its serial trial's statistics too."""
        want, got = self.slab(scheme, start)
        assert got == want
        assert any(w[4].recompute_mismatches for w in want)


class TestMixedKinds:
    """One kind_weights table mixing the classic kinds (value / branch /
    addr) with the control-flow kinds (skip / skip-burst / cf): the batch
    backend runs the value flips as lanes and every other trial one by
    one, and must still tally byte-identically to the reference
    interpreter, per fault kind."""

    def test_adversarial_mix_tallies_identical(self):
        serial, batch = _blocks("conv1d", "UNSAFE", 32,
                                kind_weights=ADVERSARIAL_KIND_WEIGHTS)
        assert batch.to_dict() == serial.to_dict()
        # the mix is 35% control kinds over 32 trials: the campaign must
        # actually have drawn some, or this test checks nothing
        drawn = set(serial.kind_tallies)
        assert drawn & {"skip", "skip-burst", "cf"}
        assert sum(sum(t.values()) for t in serial.kind_tallies.values()) == 32

    def test_mixed_kinds_under_protection(self):
        serial, batch = _blocks("conv1d", "SWIFT", 24,
                                kind_weights=ADVERSARIAL_KIND_WEIGHTS)
        assert batch.to_dict() == serial.to_dict()

    def test_slab_width_independent_with_mixed_kinds(self):
        """Narrow slabs change which lanes share a slab (and therefore
        which peel-forks happen); the tallies must not notice."""
        wide, _ = _blocks("conv1d", "UNSAFE", 26,
                          kind_weights=ADVERSARIAL_KIND_WEIGHTS)
        narrow_serial, narrow = _blocks(
            "conv1d", "UNSAFE", 26,
            kind_weights=ADVERSARIAL_KIND_WEIGHTS, lanes=5)
        assert narrow.to_dict() == wide.to_dict() == narrow_serial.to_dict()

    def test_kind_tallies_roundtrip_and_merge(self):
        serial, _ = _blocks("conv1d", "UNSAFE", 16,
                            kind_weights=ADVERSARIAL_KIND_WEIGHTS)
        clone = CampaignResult.from_dict(serial.to_dict())
        assert clone.to_dict() == serial.to_dict()
        clone.merge(CampaignResult.from_dict(serial.to_dict()))
        assert clone.trials == 32
        for kind, tallies in serial.kind_tallies.items():
            assert clone.kind_tallies[kind] == tallies + tallies

    def test_old_checkpoint_without_kind_tallies_loads(self):
        serial, _ = _blocks("conv1d", "UNSAFE", 8)
        data = serial.to_dict()
        del data["kind_tallies"]  # checkpoint written before this field
        restored = CampaignResult.from_dict(data)
        assert restored.kind_tallies == {}
        assert restored.trials == serial.trials

    def test_parallel_path_carries_custom_kind_weights(self):
        """--jobs N with a non-default mix tallies exactly like serial
        (the mix used to be rejected on this path; now it is plumbed
        through the worker task args)."""
        workload = get_workload("conv1d")
        serial = run_campaign(workload, "UNSAFE", 8, seed=SEED, scale=SCALE,
                              kind_weights=ADVERSARIAL_KIND_WEIGHTS)
        parallel = run_campaign(workload, "UNSAFE", 8, seed=SEED, scale=SCALE,
                                jobs=2, kind_weights=ADVERSARIAL_KIND_WEIGHTS)
        assert parallel.to_dict() == serial.to_dict()


class TestBackendRouting:
    def test_run_campaign_routes_through_batch_backend(self):
        workload = get_workload("conv1d")
        reference = run_campaign(workload, "UNSAFE", 20, seed=SEED,
                                 scale=SCALE)
        set_default_backend("batch")
        try:
            batched = run_campaign(workload, "UNSAFE", 20, seed=SEED,
                                   scale=SCALE)
        finally:
            set_default_backend(None)
        assert batched.to_dict() == reference.to_dict()


class TestFaultInducedDrainError:
    def test_drain_read_before_fetch_is_core_dump(self):
        """sgemm AR50, campaign seed 8, trial 1536: the fault sends the
        RSkip drain to read an element it never fetched.  That raised a
        bare RuntimeError out of both engines and aborted the whole
        campaign; it is a core dump, tallied alike on both."""
        workload = get_workload("sgemm")
        scheme = canonical_scheme("AR50", None)
        profiles = Harness(workload, scale=SCALE, timing=False).profiles_for(0.5)
        inp = workload.test_inputs(1, seed=8 + 17, scale=SCALE)[0]
        prepared = prepare(workload, scheme, None, profiles)
        ctx = campaign_context(prepared, workload, inp)
        serial = run_trial_block(
            prepared, workload, inp, ctx, scheme, 8, 1536, 1)
        batch = run_trial_block_batch(
            prepared, workload, inp, ctx, scheme, 8, 1536, 1)
        assert batch.to_dict() == serial.to_dict()
        assert serial.to_dict()["tallies"] == {"CORE_DUMP": 1}


@pytest.mark.slow
class TestFullScaleBatch:
    def test_full_width_slab_tallies_identical(self):
        """A block wider than one 256-lane slab, checked against the
        serial runner trial for trial."""
        serial, batch = _blocks("conv1d", "UNSAFE", 300)
        assert batch.to_dict() == serial.to_dict()

    def test_stateful_full_batch(self):
        serial, batch = _blocks("sgemm", "SWIFT-R", 60)
        assert batch.to_dict() == serial.to_dict()


class TestProtocolSchemes:
    """REPLAY<n>/CKPT<i> flow through the same single protocol dispatch
    point as rskip in both engines: per-lane intrinsic tables.  The
    tallies must match the serial reference byte for byte."""

    def test_replay_tallies_identical(self):
        serial, batch = _blocks("conv1d", "replay2", 16)
        assert batch.to_dict() == serial.to_dict()

    def test_ckpt_tallies_identical(self):
        serial, batch = _blocks("conv1d", "ckpt8", 16)
        assert batch.to_dict() == serial.to_dict()

    def test_ckpt_fixed_interval_tallies_identical(self):
        serial, batch = _blocks("conv1d", "ckpt8fix", 12)
        assert batch.to_dict() == serial.to_dict()

    def test_slab_width_independence(self):
        wide_serial, wide = _blocks("conv1d", "replay2", 15, lanes=5)
        narrow_serial, narrow = _blocks("conv1d", "replay2", 15, lanes=7)
        assert wide_serial.to_dict() == narrow_serial.to_dict()
        assert wide.to_dict() == wide_serial.to_dict()
        assert narrow.to_dict() == narrow_serial.to_dict()

    def test_ckpt_rollback_deterministic(self):
        """Seeded faulty trials exercise the rollback/vote path; the same
        block run twice must reproduce the exact same tallies, and some
        trials must actually be caught by the replay comparison."""
        first, _ = _blocks("conv1d", "ckpt4", 24)
        second, _ = _blocks("conv1d", "ckpt4", 24)
        assert first.to_dict() == second.to_dict()
        assert first.caught > 0
