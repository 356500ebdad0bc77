"""Stratified allocation, the section store and incremental reuse."""
import json
import os

import pytest

from repro.eval import (
    SectionStore,
    partition_sections,
    prepare,
    run_campaign,
    run_campaign_stratified,
    stratified_allocation,
)
from repro.eval import incremental
from repro.eval.fault_campaign import campaign_context
from repro.eval.incremental import section_plans, section_store_key
from repro.runtime.compiler import CompiledExecutor
from repro.runtime.faults import ADVERSARIAL_KIND_WEIGHTS
from repro.runtime.interpreter import Interpreter
from repro.workloads import get_workload

SCALE = 0.3
TRIALS = 20


@pytest.fixture(scope="module")
def conv1d():
    return get_workload("conv1d")


def result_dict(stratified):
    return stratified.result.to_dict()


class _FirstTrial(Exception):
    pass


class TestGoldenRun:
    def test_one_golden_run_before_the_first_trial(self, conv1d, monkeypatch):
        """A stratified campaign runs the golden program exactly once
        before its first trial: one reference run (the capture that also
        yields the section windows), no compiled run."""
        runs = {"ref": 0, "compiled": 0}

        def counted(cls, name):
            original = cls.run

            def run(self, *args, **kwargs):
                runs[name] += 1
                return original(self, *args, **kwargs)
            monkeypatch.setattr(cls, "run", run)

        counted(Interpreter, "ref")
        counted(CompiledExecutor, "compiled")
        seen = []

        def first_block(*args, **kwargs):
            seen.append(dict(runs))
            raise _FirstTrial

        monkeypatch.setattr(incremental, "_run_plan_block", first_block)
        with pytest.raises(_FirstTrial):
            run_campaign_stratified(conv1d, "UNSAFE", TRIALS, scale=SCALE)
        assert seen == [{"ref": 1, "compiled": 0}]


class TestAllocation:
    def test_sums_exactly_and_tracks_proportions(self):
        counts = stratified_allocation([100, 200, 700], 10)
        assert sum(counts) == 10
        assert counts == [1, 2, 7]

    def test_largest_remainder_rounding(self):
        counts = stratified_allocation([1, 1, 1], 10)
        assert sum(counts) == 10
        assert sorted(counts) == [3, 3, 4]

    def test_small_trial_counts_still_sum(self):
        assert sum(stratified_allocation([5, 99999], 1)) == 1

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            stratified_allocation([0, 0], 5)


class TestSectionPlans:
    def test_plans_stay_inside_the_section_window(self, conv1d):
        inp = conv1d.test_inputs(1, seed=18, scale=SCALE)[0]
        prepared = prepare(conv1d, "UNSAFE")
        ctx = campaign_context(prepared, conv1d, inp)
        part = partition_sections(prepared, conv1d, ctx)
        for section in part.sections:
            window = set()
            for start, length in section.segments:
                window.update(range(start, start + length))
            plans = section_plans(section, 25, 3, conv1d.name, "UNSAFE")
            assert len(plans) == 25
            assert all(plan.step in window for plan in plans)

    def test_streams_are_fingerprint_keyed(self, conv1d):
        """Two sections never share a plan stream, and the stream does not
        depend on the section's position in the partition."""
        inp = conv1d.test_inputs(1, seed=18, scale=SCALE)[0]
        prepared = prepare(conv1d, "UNSAFE")
        ctx = campaign_context(prepared, conv1d, inp)
        part = partition_sections(prepared, conv1d, ctx)
        assert len(part.sections) >= 2
        a, b = part.sections[0], part.sections[1]
        plans_a = section_plans(a, 10, 0, conv1d.name, "UNSAFE")
        plans_b = section_plans(b, 10, 0, conv1d.name, "UNSAFE")
        assert [p.step for p in plans_a] != [p.step for p in plans_b]
        # same section again: byte-identical plans
        again = section_plans(a, 10, 0, conv1d.name, "UNSAFE")
        assert [(p.step, p.kind, p.bit, p.pick) for p in plans_a] \
            == [(p.step, p.kind, p.bit, p.pick) for p in again]


class TestStratifiedCampaign:
    def test_backends_tally_byte_identically(self, conv1d):
        ref = run_campaign_stratified(
            conv1d, "UNSAFE", TRIALS, seed=1, scale=SCALE, backend="ref")
        batch = run_campaign_stratified(
            conv1d, "UNSAFE", TRIALS, seed=1, scale=SCALE, backend="batch")
        assert result_dict(ref) == result_dict(batch)

    def test_differs_from_default_stream_but_same_shape(self, conv1d):
        """Stratified mode draws from different seed streams than the
        default campaign — same trial count and region, different plans."""
        default = run_campaign(conv1d, "UNSAFE", TRIALS, scale=SCALE)
        stratified = run_campaign_stratified(
            conv1d, "UNSAFE", TRIALS, scale=SCALE)
        assert stratified.result.trials == default.trials
        assert stratified.result.region_steps == default.region_steps

    def test_stateful_scheme_supported(self, conv1d):
        outcome = run_campaign_stratified(
            conv1d, "AR100", 8, scale=SCALE)
        assert outcome.result.trials == 8
        assert sum(outcome.result.tallies.values()) == 8


class TestStoreReuse:
    def test_cold_then_warm_is_byte_identical_with_full_reuse(
            self, conv1d, tmp_path):
        store = SectionStore(directory=str(tmp_path / "campaigns"))
        kwargs = dict(seed=2, scale=SCALE, store=store)
        cold = run_campaign_stratified(
            conv1d, "UNSAFE", TRIALS, reuse=True, **kwargs)
        assert cold.reused_sections == 0
        warm = run_campaign_stratified(
            conv1d, "UNSAFE", TRIALS, reuse=True, **kwargs)
        assert result_dict(warm) == result_dict(cold)
        populated = sum(1 for s in cold.sections if s.trials > 0)
        assert warm.reused_sections == populated
        assert warm.injected_trials == 0

    def test_store_roundtrip_zeroes_region_steps(self, conv1d, tmp_path):
        store = SectionStore(directory=str(tmp_path / "campaigns"))
        cold = run_campaign_stratified(
            conv1d, "UNSAFE", TRIALS, seed=2, scale=SCALE, store=store)
        files = os.listdir(store.directory)
        assert files
        with open(os.path.join(store.directory, files[0])) as handle:
            record = json.load(handle)
        assert record["payload"]["result"]["region_steps"] == 0
        key = files[0][:-len(".json")]
        part = store.get(key)
        assert part is not None
        assert part.region_steps == 0
        assert cold.result.region_steps > 0

    def test_corrupt_entry_is_a_miss_and_removed(self, conv1d, tmp_path):
        store = SectionStore(directory=str(tmp_path / "campaigns"))
        run_campaign_stratified(
            conv1d, "UNSAFE", TRIALS, seed=2, scale=SCALE, store=store)
        victim = sorted(os.listdir(store.directory))[0]
        path = os.path.join(store.directory, victim)
        with open(path, "w") as handle:
            handle.write("not json")
        fresh = SectionStore(directory=store.directory)
        assert fresh.get(victim[:-len(".json")]) is None
        assert not os.path.exists(path)
        # the campaign recovers by re-injecting the lost section
        warm = run_campaign_stratified(
            conv1d, "UNSAFE", TRIALS, seed=2, scale=SCALE,
            store=fresh, reuse=True)
        assert warm.injected_sections >= 1
        assert warm.reused_sections >= 1

    def test_fault_model_params_key_the_store(self, conv1d, tmp_path):
        """A different seed or kind mix must never be served stale
        tallies."""
        store = SectionStore(directory=str(tmp_path / "campaigns"))
        run_campaign_stratified(
            conv1d, "UNSAFE", TRIALS, seed=2, scale=SCALE, store=store)
        other_seed = run_campaign_stratified(
            conv1d, "UNSAFE", TRIALS, seed=3, scale=SCALE,
            store=store, reuse=True)
        assert other_seed.reused_sections == 0
        other_mix = run_campaign_stratified(
            conv1d, "UNSAFE", TRIALS, seed=2, scale=SCALE,
            store=store, reuse=True,
            kind_weights=ADVERSARIAL_KIND_WEIGHTS)
        assert other_mix.reused_sections == 0

    def test_store_key_covers_every_axis(self, conv1d):
        inp = conv1d.test_inputs(1, seed=18, scale=SCALE)[0]
        prepared = prepare(conv1d, "UNSAFE")
        ctx = campaign_context(prepared, conv1d, inp)
        part = partition_sections(prepared, conv1d, ctx)
        section = part.sections[0]
        base = dict(workload="conv1d", scheme_hash="h", section=section,
                    trials=5, seed=0, scale=0.3,
                    kind_weights=(("value", 1.0),), max_steps=1000)
        key = section_store_key(**base)
        for field, value in [
            ("scheme_hash", "h2"), ("trials", 6), ("seed", 1),
            ("scale", 0.4), ("kind_weights", (("value", 0.5),)),
            ("max_steps", 2000),
        ]:
            assert section_store_key(**{**base, field: value}) != key
