"""Backend parity and the disabled-cost contract of the obs layer.

The compiled backend must be observationally equivalent to the reference
interpreter *including* the event stream: every predictor decision the
RSkip runtime takes (intrinsics run identically under both backends)
emits the same events in the same order.  And when no sink is installed,
instrumented code must not even construct payloads — pinned here by
making ``emit`` explode and running the whole instrumented path.
"""
import os

import pytest

from repro.difftest.oracles import execute_module, module_copy
from repro.eval import Harness
from repro.ir.parser import parse_module
from repro.obs import MemorySink, sink_installed
from repro.pipeline import protect
from repro.workloads import get_workload

CORPUS_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "difftest", "corpus"
)


def corpus_files():
    if not os.path.isdir(CORPUS_DIR):
        return []
    return sorted(f for f in os.listdir(CORPUS_DIR) if f.endswith(".ir"))


def event_stream(module, backend):
    """(kind, loop, payload) stream of one rskip-protected clean run."""
    work = module_copy(module)
    intrinsics = protect(work, "rskip", use_cache=False).intrinsics
    with sink_installed(MemorySink(capacity=1 << 16)) as sink:
        result = execute_module(work, intrinsics=intrinsics, backend=backend)
    events = [(e.kind, e.loop, e.payload) for e in sink.events]
    assert sink.dropped == 0
    return events, result


class TestBackendEventParity:
    @pytest.mark.parametrize("filename", corpus_files())
    def test_corpus_events_identical_ref_vs_compiled(self, filename):
        with open(os.path.join(CORPUS_DIR, filename), encoding="utf-8") as f:
            module = parse_module(f.read())
        ref_events, ref_result = event_stream(module, "ref")
        com_events, com_result = event_stream(module, "compiled")
        assert ref_events == com_events, filename
        assert ref_result.steps == com_result.steps, filename

    def test_workload_measurement_events_identical(self):
        """A full harness measurement (training + measured run) emits the
        same stream whichever backend serves the clean runs."""
        def stream(backend):
            os.environ["REPRO_BACKEND"] = backend
            from repro.runtime import set_default_backend

            set_default_backend(backend)
            try:
                workload = get_workload("conv1d")
                harness = Harness(workload, scale=0.35, timing=False)
                inp = workload.test_inputs(1, seed=18, scale=0.35)[0]
                with sink_installed(MemorySink(capacity=1 << 16)) as sink:
                    record = harness.run_scheme("AR100", inp)
                return ([(e.kind, e.loop, e.payload) for e in sink.events],
                        record.skip_rate)
            finally:
                os.environ.pop("REPRO_BACKEND", None)
                set_default_backend(None)

        ref_events, ref_skip = stream("ref")
        com_events, com_skip = stream("compiled")
        assert ref_events == com_events
        assert ref_skip == com_skip


class TestDisabledCost:
    def test_no_payload_construction_without_sink(self, monkeypatch):
        """Every instrumentation site must check ``enabled()`` *before*
        building kwargs: with emit booby-trapped, an untraced end-to-end
        run (training, measurement, campaign trial block) stays silent.
        Only the campaign's golden-run capture emits: it diverts the
        events into its own recorder, for traced trials to replay."""
        from repro.obs.events import current_sink

        def explode(*args, **kwargs):
            if current_sink() is not None:  # the capture's recorder
                return
            raise AssertionError(
                "emit() reached with no sink installed — an instrumentation "
                "site is building payloads on the disabled path"
            )

        import repro.core.manager as manager
        import repro.core.training as training
        import repro.eval.fault_campaign as fault_campaign

        monkeypatch.setattr(manager, "obs_emit", explode)
        monkeypatch.setattr(training, "obs_emit", explode)
        monkeypatch.setattr(fault_campaign, "obs_emit", explode)

        workload = get_workload("conv1d")
        harness = Harness(workload, scale=0.35, timing=False)
        inp = workload.test_inputs(1, seed=18, scale=0.35)[0]
        record = harness.run_scheme("AR100", inp)
        assert record.stats is not None and record.stats.elements > 0

        from repro.eval import run_campaign

        campaign = run_campaign(workload, "AR100", 3, scale=0.35,
                                profiles=harness.profiles_for(1.0))
        assert campaign.trials == 3
