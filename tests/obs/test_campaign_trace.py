"""Campaign tracing: per-shard files, deterministic merge, manifests."""
import dataclasses
import json
import os
from collections import Counter

import pytest

from repro.eval import Harness, campaign_engine
from repro.eval.campaign_engine import run_campaign_parallel, run_campaigns
from repro.obs import RunManifest, read_trace
from repro.runtime import prefix
from repro.runtime.compiler import CompiledExecutor
from repro.runtime.backend import set_default_backend
from repro.runtime.faults import ADVERSARIAL_KIND_WEIGHTS
from repro.workloads import get_workload

SCALE = 0.35
TRIALS = 10


@pytest.fixture(scope="module")
def conv1d():
    return get_workload("conv1d")


@pytest.fixture(scope="module")
def conv1d_profiles(conv1d):
    return Harness(conv1d, scale=SCALE, timing=False).profiles_for(1.0)


def run_traced(conv1d, profiles, out, jobs, chunk=3):
    result = run_campaign_parallel(
        conv1d, "AR100", TRIALS, scale=SCALE, profiles=profiles,
        jobs=jobs, chunk=chunk, trace_out=out,
    )
    with open(out, "rb") as handle:
        return result, handle.read()


class TestTraceByteIdentity:
    def test_parallel_trace_matches_serial(self, conv1d, conv1d_profiles,
                                           tmp_path):
        """The headline contract: --jobs 1 and --jobs 2 produce
        byte-identical merged traces AND identical tallies."""
        serial, serial_bytes = run_traced(
            conv1d, conv1d_profiles, str(tmp_path / "serial.jsonl"), jobs=1)
        parallel, parallel_bytes = run_traced(
            conv1d, conv1d_profiles, str(tmp_path / "parallel.jsonl"), jobs=2)
        assert serial_bytes == parallel_bytes
        assert serial_bytes  # a trace was actually written
        assert dict(serial.tallies) == dict(parallel.tallies)
        assert (serial.caught, serial.detected, serial.false_negatives) == \
            (parallel.caught, parallel.detected, parallel.false_negatives)

    def test_chunking_does_not_change_the_trace(self, conv1d, conv1d_profiles,
                                                tmp_path):
        _, a = run_traced(conv1d, conv1d_profiles,
                          str(tmp_path / "c3.jsonl"), jobs=1, chunk=3)
        _, b = run_traced(conv1d, conv1d_profiles,
                          str(tmp_path / "c7.jsonl"), jobs=1, chunk=7)
        assert a == b


class TestTraceContents:
    def test_shards_manifest_and_events(self, conv1d, conv1d_profiles,
                                        tmp_path):
        out = str(tmp_path / "trace.jsonl")
        result, _ = run_traced(conv1d, conv1d_profiles, out, jobs=1, chunk=4)

        shard_dir = out + ".shards"
        shards = sorted(os.listdir(shard_dir))
        assert len(shards) == 3  # 10 trials in chunks of 4 -> 4+4+2

        events = read_trace(out)
        assert [e.seq for e in events] == list(range(len(events)))
        assert len({e.run for e in events}) == 1  # shards share one run id
        trials = [e for e in events if e.kind == "trial-outcome"]
        assert len(trials) == TRIALS
        assert [e.payload["trial"] for e in trials] == list(range(TRIALS))
        outcome_names = {o.name for o in result.tallies}
        assert {e.payload["outcome"] for e in trials} == outcome_names

        manifest = RunManifest.load(out)
        assert manifest is not None
        assert manifest.command == "campaign"
        assert manifest.events == len(events)
        assert manifest.totals["trials"] == TRIALS
        assert manifest.run == events[0].run
        shard_spans = [label for label, _ in manifest.spans
                       if label.startswith("shard:")]
        assert len(shard_spans) == 3  # one wall-clock span per shard
        assert manifest.fingerprints  # module fingerprint recorded

    def test_batch_spans_reach_the_manifest(self, conv1d, tmp_path):
        """The batch engine reports its lockstep/tail split as manifest
        spans only: the trace body of a campaign whose trials emit only
        their outcomes stays byte-identical to the reference backend's.
        (RSkip runtime events interleave in lockstep order on the batch
        backend, so only their per-backend determinism holds.)"""
        def traced(name, backend):
            out = str(tmp_path / name)
            set_default_backend(backend)
            try:
                run_campaign_parallel(
                    conv1d, "UNSAFE", 30, scale=SCALE, jobs=1, chunk=30,
                    trace_out=out, kind_weights=ADVERSARIAL_KIND_WEIGHTS)
            finally:
                set_default_backend(None)
            with open(out, "rb") as handle:
                return out, handle.read()

        _, ref_bytes = traced("ref.jsonl", "ref")
        out, batch_bytes = traced("batch.jsonl", "batch")
        assert batch_bytes == ref_bytes
        spans = dict(RunManifest.load(out).spans)
        assert {"batch.lockstep", "batch.tail"} <= set(spans)
        assert spans["batch.lockstep"] > 0
        assert spans["batch.tail"] > 0  # groups of SCALAR_CUTOFF lanes or fewer
        assert not any(label.startswith("batch.")
                       for label, _ in RunManifest.load(
                           str(tmp_path / "ref.jsonl")).spans)

    @pytest.mark.parametrize("scheme", ["AR50", "CKPT8"])
    def test_batch_trace_carries_the_reference_events(self, conv1d, scheme,
                                                      tmp_path):
        """Lanes sharing one runtime make each shared call once, and the
        batch engine emits its events once per sharing lane: a traced
        batch campaign holds the same (kind, loop, payload) multiset as
        the reference backend's (only their order may differ)."""
        profiles = None
        if scheme == "AR50":
            profiles = Harness(conv1d, scale=SCALE,
                               timing=False).profiles_for(0.5)

        def events(backend):
            out = str(tmp_path / f"{backend}.jsonl")
            set_default_backend(backend)
            try:
                run_campaign_parallel(
                    conv1d, scheme, 50, scale=SCALE, profiles=profiles,
                    jobs=1, chunk=25, trace_out=out)
            finally:
                set_default_backend(None)
            return Counter((e.kind, e.loop, json.dumps(e.payload, sort_keys=True))
                           for e in read_trace(out))

        ref = events("ref")
        assert events("batch") == ref
        assert {kind for kind, _, _ in ref} - {"trial-outcome", "pass-run"}

    def test_fast_forwarded_trials_re_emit_the_golden_prefix(
            self, tmp_path, monkeypatch):
        """Reference trials fast-forwarded from golden-run snapshots
        re-emit the runtime events of the prefix they skip, and trials
        settled without running re-emit the whole golden run's: a
        full-event RSkip trace is byte-identical to the same campaign run
        from scratch (its context without a prefix, where nothing
        settles) and on the reference backend (which never settles), and
        across --jobs 1/2.  The capture itself reaches the manifest as
        one span and nothing else."""
        sgemm = get_workload("sgemm")
        profiles = Harness(sgemm, scale=SCALE, timing=False).profiles_for(0.5)
        settled = []
        golden_settle = prefix.GoldenPrefix.settle

        def settle_recorded(self, fresh_memory, runtime=None):
            settled.append(True)
            return golden_settle(self, fresh_memory, runtime)

        monkeypatch.setattr(prefix.GoldenPrefix, "settle", settle_recorded)

        def traced(name, jobs):
            out = str(tmp_path / name)
            run_campaign_parallel(
                sgemm, "AR50", 24, seed=2, scale=SCALE, profiles=profiles,
                jobs=jobs, chunk=8, trace_out=out)
            with open(out, "rb") as handle:
                return out, handle.read()

        out, fast = traced("fast.jsonl", jobs=1)
        assert settled
        _, parallel = traced("parallel.jsonl", jobs=2)
        golden_context = campaign_engine.campaign_context
        settled.clear()
        with monkeypatch.context() as patch:
            patch.setattr(campaign_engine, "campaign_context",
                          lambda *args: dataclasses.replace(
                              golden_context(*args), prefix=None))
            _, slow = traced("slow.jsonl", jobs=1)
        set_default_backend("ref")
        try:
            _, ref = traced("ref.jsonl", jobs=1)
        finally:
            set_default_backend(None)
        assert not settled
        assert fast == slow == parallel == ref
        kinds = {event.kind for event in read_trace(out)}
        assert {"exec", "phase-cut", "skip", "trial-outcome"} <= kinds
        spans = [label for label, _ in RunManifest.load(out).spans]
        assert spans.count("ref.capture") == 1

    def test_handed_off_trials_emit_the_reference_trace(self, tmp_path,
                                                         monkeypatch):
        """Trials that settle without running (a masked value flip) or
        finish on the compiled backend once their fault has acted (the
        default backend) write the trace body the reference interpreter
        writes alone."""
        sgemm = get_workload("sgemm")
        profiles = Harness(sgemm, scale=SCALE, timing=False).profiles_for(0.5)
        handoffs, settles = [], []

        class Recorded(CompiledExecutor):
            def run(self, func_name, args=(), state=None):
                handoffs.append(state is not None)
                return super().run(func_name, args, state=state)

        golden_settle = prefix.GoldenPrefix.settle

        def settle_recorded(self, fresh_memory, runtime=None):
            settles.append(True)
            return golden_settle(self, fresh_memory, runtime)

        monkeypatch.setattr(prefix, "CompiledExecutor", Recorded)
        monkeypatch.setattr(prefix.GoldenPrefix, "settle", settle_recorded)

        def traced(name, backend):
            out = str(tmp_path / name)
            set_default_backend(backend)
            try:
                run_campaign_parallel(
                    sgemm, "AR50", 60, scale=SCALE, profiles=profiles,
                    jobs=1, chunk=60, trace_out=out)
            finally:
                set_default_backend(None)
            with open(out, "rb") as handle:
                return out, handle.read()

        _, ref = traced("ref.jsonl", "ref")
        assert not handoffs and not settles
        _, default = traced("default.jsonl", None)
        assert default == ref
        # most of the 60 trials settled or handed off
        assert sum(handoffs) + len(settles) > 30
        assert settles and any(handoffs)

    def test_untraced_campaign_writes_nothing(self, conv1d, conv1d_profiles,
                                              tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_campaigns(
            [(conv1d, "AR100", conv1d_profiles)], trials=TRIALS, scale=SCALE,
            jobs=1,
        )
        assert os.listdir(tmp_path) == []
