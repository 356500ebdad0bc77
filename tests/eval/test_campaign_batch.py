"""Batch-backend campaigns and chunk merging.

The lane-vectorized block runner must tally byte-identically to the
serial one — same trials, same seeds, same `CampaignResult` — for both
stateless and runtime-stateful schemes, through both the direct block
API and the `--backend batch` routing in `run_campaign`.  Plus the
`CampaignResult.merge` regression: chunks from different campaign
configurations (mismatched non-zero ``region_steps``) must refuse to
merge instead of silently keeping the first chunk's value.
"""
import pytest

from repro.eval import Harness
from repro.eval.fault_campaign import (
    CampaignResult,
    campaign_context,
    run_campaign,
    run_trial_block,
    run_trial_block_batch,
)
from repro.eval.schemes import prepare
from repro.pipeline.registry import canonical_scheme
from repro.runtime.backend import set_default_backend
from repro.runtime.faults import ADVERSARIAL_KIND_WEIGHTS
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
        keep trials isolated (per-lane prepared programs) so ``caught``
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


class TestMixedKinds:
    """One kind_weights table mixing the classic kinds (value / branch /
    addr) with the control-flow kinds (skip / skip-burst / cf): the batch
    engine must peel armed lanes to its scalar path and still tally
    byte-identically to the reference interpreter, per fault kind."""

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
            prepared, workload, inp, ctx, scheme, 8, 1536, 1,
            profiles=profiles)
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
