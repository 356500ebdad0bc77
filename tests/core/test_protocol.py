"""Unit tests for the REPLAY/CKPT protocol runtimes and transform."""
import pytest

from repro.core.manager import Element, FaultLikelihoodSignal
from repro.core.protocol import (
    PROTOCOL_REGION_ATTR,
    CkptLoopRuntime,
    ProtocolRuntime,
    ReplayLoopRuntime,
    apply_protocol,
)
from repro.ir import verify_module
from repro.runtime import FaultDetectedError
from repro.runtime.errors import CoreDumpError

from ..conftest import build_dot_module, run_main


def elem(i, value, addr=100):
    return Element(i, value, addr + i)


class TestReplayLoopRuntime:
    def test_only_sampled_windows_enqueue(self):
        rt = ReplayLoopRuntime("k", sample_period=2, window=4)
        rt.enter()
        for i in range(16):  # 4 windows of 4
            rt.observe(elem(i, float(i)))
        # windows 0 and 2 sampled, 1 and 3 skipped
        assert len(rt.queue) == 8
        assert rt.stats.phases == 2
        assert rt.stats.elements == 16

    def test_flush_closes_partial_window(self):
        rt = ReplayLoopRuntime("k", sample_period=1, window=4)
        rt.enter()
        for i in range(6):  # one full window + 2 leftovers
            rt.observe(elem(i, float(i)))
        assert len(rt.queue) == 4
        pending, _ = rt.flush()
        assert pending == 6
        assert rt.stats.phases == 2

    def test_resolve_match_returns_recorded_value(self):
        rt = ReplayLoopRuntime("k", sample_period=1, window=1)
        rt.enter()
        rt.observe(elem(0, 3.5))
        index, _ = rt.fetch()
        assert index == 0
        value, _ = rt.resolve(3.5)
        assert value == 3.5
        assert rt.stats.recomputed == 1
        assert rt.stats.recompute_mismatches == 0

    def test_resolve_mismatch_aborts(self):
        rt = ReplayLoopRuntime("k", sample_period=1, window=1)
        rt.enter()
        rt.observe(elem(0, 3.5))
        rt.fetch()
        with pytest.raises(FaultDetectedError):
            rt.resolve(4.0)
        assert rt.stats.recompute_mismatches == 1

    def test_read_before_fetch_is_core_dump(self):
        rt = ReplayLoopRuntime("k", sample_period=1, window=1)
        rt.enter()
        assert rt.fetch()[0] == -1
        with pytest.raises(CoreDumpError):
            rt.orig()

    def test_replay_never_votes(self):
        """need2 is always 0; a resolve2 call can only come from a
        corrupted branch, which REPLAY turns into a detection."""
        rt = ReplayLoopRuntime("k", sample_period=1, window=1)
        rt.enter()
        rt.observe(elem(0, 1.0))
        rt.fetch()
        pending, _ = rt.need2()
        assert pending == 0
        with pytest.raises(FaultDetectedError):
            rt.resolve2(1.0)
        assert rt.stats.recompute_mismatches == 1

    def test_sample_period_validated(self):
        with pytest.raises(ValueError):
            ReplayLoopRuntime("k", sample_period=0, window=4)


class TestCkptLoopRuntime:
    def test_commits_at_base_interval_without_predictor(self):
        rt = CkptLoopRuntime("k", interval=4, predictor=False)
        rt.enter()
        for i in range(10):
            rt.observe(elem(i, 7.0))  # jumpy or not: no signal
        rt.flush()
        assert rt.commit_intervals == [4, 4, 2]
        assert rt.stats.phases == 3
        assert rt.stats.tp_adjustments == 0
        assert len(rt.queue) == 10  # everything reaches the commit drain

    def test_linear_stream_keeps_base_interval(self):
        rt = CkptLoopRuntime("k", interval=4, predictor=True)
        rt.enter()
        for i in range(12):
            rt.observe(elem(i, 1.0 + 0.1 * i))  # perfectly extrapolable
        assert rt.commit_intervals == [4, 4, 4]
        assert rt.stats.tp_adjustments == 0

    def test_jumpy_stream_shrinks_interval(self):
        rt = CkptLoopRuntime("k", interval=8, predictor=True)
        rt.enter()
        values = [0.0, 100.0, -50.0, 400.0, 3.0, -90.0, 250.0, 1.0,
                  777.0, -3.0, 55.0, 0.5, 123.0, -8.0, 90.0, 2.0]
        for i, v in enumerate(values):
            rt.observe(elem(i, v))
        rt.flush()
        assert rt.stats.tp_adjustments > 0
        assert min(rt.commit_intervals) < 8
        # the signal-driven run commits more often than the fixed one
        fixed = CkptLoopRuntime("k", interval=8, predictor=False)
        fixed.enter()
        for i, v in enumerate(values):
            fixed.observe(elem(i, v))
        fixed.flush()
        assert len(rt.commit_intervals) > len(fixed.commit_intervals)

    def test_vote_corrects_recorded_value(self):
        rt = CkptLoopRuntime("k", interval=1, predictor=False)
        rt.enter()
        rt.observe(elem(0, 9.0))  # recorded (corrupted) value
        rt.fetch()
        value, _ = rt.resolve(5.0)  # first re-execution disagrees
        assert value == 5.0
        assert rt.need2()[0] == 1
        voted, _ = rt.resolve2(5.0)  # second agrees with the first
        assert voted == 5.0
        assert rt.stats.corrected_master == 1
        assert rt.need2()[0] == 0

    def test_vote_corrects_first_reexecution(self):
        rt = CkptLoopRuntime("k", interval=1, predictor=False)
        rt.enter()
        rt.observe(elem(0, 9.0))
        rt.fetch()
        rt.resolve(5.0)
        voted, _ = rt.resolve2(9.0)  # second agrees with the record
        assert voted == 9.0
        assert rt.stats.corrected_shadow == 1

    def test_vote_unresolved_keeps_last_reexecution(self):
        rt = CkptLoopRuntime("k", interval=1, predictor=False)
        rt.enter()
        rt.observe(elem(0, 9.0))
        rt.fetch()
        rt.resolve(5.0)
        voted, _ = rt.resolve2(7.0)  # three-way disagreement
        assert voted == 7.0
        assert rt.stats.unresolved_votes == 1

    def test_reset_clears_interval_trace(self):
        rt = CkptLoopRuntime("k", interval=2, predictor=False)
        rt.enter()
        for i in range(4):
            rt.observe(elem(i, 1.0))
        assert rt.commit_intervals
        rt.reset()
        assert rt.commit_intervals == []
        assert rt.stats.elements == 0

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            CkptLoopRuntime("k", interval=0)


class TestFaultLikelihoodSignal:
    def test_linear_stream_has_zero_likelihood(self):
        sig = FaultLikelihoodSignal(tolerance=0.2, window=8)
        for i in range(20):
            sig.observe(1.0 + 0.5 * i)
        assert sig.likelihood() == 0.0
        assert sig.mispredictions == 0

    def test_jumps_raise_likelihood(self):
        sig = FaultLikelihoodSignal(tolerance=0.2, window=8)
        for v in [0.0, 1.0, 2.0, 500.0, 3.0, -200.0]:
            sig.observe(v)
        assert sig.likelihood() > 0.0
        assert sig.mispredictions > 0

    def test_deterministic_in_value_stream(self):
        values = [0.1 * ((i * 37) % 19) for i in range(40)]
        a = FaultLikelihoodSignal()
        b = FaultLikelihoodSignal()
        for v in values:
            a.observe(v)
            b.observe(v)
        assert a.likelihood() == b.likelihood()
        assert a.mispredictions == b.mispredictions


class TestProtocolTransform:
    @pytest.mark.parametrize("kind", ["replay", "ckpt"])
    def test_transform_marks_region_and_runs_clean(self, kind):
        golden, mem = run_main(build_dot_module(), [8, 8])
        golden_out = mem.read_global("out", 8)

        module = build_dot_module()
        app = apply_protocol(module, kind)
        verify_module(module)
        assert app.layouts, "dot module must yield a protocol target loop"
        body = module.get_function(app.layouts[0].body)
        assert body.attrs.get(PROTOCOL_REGION_ATTR) == kind

        result, mem = run_main(module, [8, 8], intrinsics=app.intrinsics())
        assert result.value == golden.value
        assert mem.read_global("out", 8) == golden_out
        stats = app.runtime.total_stats()
        assert stats.elements == 8
        assert stats.recompute_mismatches == 0

    def test_ckpt_commit_intervals_exposed_by_runtime(self):
        module = build_dot_module()
        app = apply_protocol(module, "ckpt", interval=3, predictor=False)
        run_main(module, [8, 8], intrinsics=app.intrinsics())
        assert app.runtime.commit_intervals() == [3, 3, 2]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ProtocolRuntime("voodoo")
