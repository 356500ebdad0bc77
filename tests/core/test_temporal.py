import pytest

from repro.core import Element, LoopRuntime, RSkipConfig, TemporalPredictor, apply_rskip
from repro.ir import verify_module

from ..conftest import build_dot_module, run_main


class TestPredictor:
    def test_first_execution_has_no_predictions(self):
        t = TemporalPredictor()
        t.begin_execution()
        t.record(0, 1.0)
        assert t.predict(0) is None  # history rotates at the *next* entry

    def test_second_execution_predicts(self):
        t = TemporalPredictor()
        t.begin_execution()
        t.record(0, 1.5)
        t.record(1, 2.5)
        t.begin_execution()
        assert t.predict(0) == 1.5
        assert t.predict(1) == 2.5
        assert t.predict(2) is None

    def test_validate_uses_acceptable_range(self):
        t = TemporalPredictor()
        t.begin_execution()
        t.record(0, 10.0)
        t.begin_execution()
        assert t.validate(0, 11.0, acceptable_range=0.2)
        assert not t.validate(0, 20.0, acceptable_range=0.2)
        assert t.predictions == 2 and t.hits == 1

    def test_entry_cap(self):
        t = TemporalPredictor(max_entries=2)
        t.begin_execution()
        for i in range(5):
            t.record(i, float(i))
        t.begin_execution()
        assert t.predict(0) == 0.0
        assert t.predict(4) is None

    def test_charge_nonempty(self):
        assert TemporalPredictor().charge()


class TestRuntimeIntegration:
    def run_executions(self, values_per_exec, ar=0.2, temporal=True):
        config = RSkipConfig(acceptable_range=ar, tuning_parameter=0.05,
                             temporal=temporal)
        runtime = LoopRuntime("t", config)
        for values in values_per_exec:
            runtime.enter()
            for i, v in enumerate(values):
                runtime.observe(Element(i, v, 100 + i))
            runtime.flush()
            # drain the re-computation queue (clean re-computes confirm)
            while True:
                idx, _ = runtime.fetch()
                if idx < 0:
                    break
                runtime.resolve(values[idx])
        return runtime

    def test_repeated_execution_skips_trendless_data(self):
        # alternating series: interpolation can never validate it
        jagged = [(-1.0) ** i * (5.0 + i % 3) for i in range(40)]
        without = self.run_executions([jagged, jagged], temporal=False)
        with_t = self.run_executions([jagged, jagged], temporal=True)
        assert with_t.stats.skipped_temporal > 0
        assert with_t.stats.skip_rate > without.stats.skip_rate + 0.2

    def test_first_execution_gains_nothing(self):
        jagged = [(-1.0) ** i * 5.0 for i in range(30)]
        runtime = self.run_executions([jagged], temporal=True)
        assert runtime.stats.skipped_temporal == 0

    def test_changed_data_not_falsely_validated(self):
        first = [(-1.0) ** i * 5.0 for i in range(30)]
        second = [v * 10.0 for v in first]  # far outside AR20
        runtime = self.run_executions([first, second], ar=0.2, temporal=True)
        assert runtime.stats.skipped_temporal == 0

    def test_end_to_end_output_preserved(self):
        golden_module = build_dot_module()
        _, golden_mem = run_main(golden_module, [6, 8])
        module = build_dot_module()
        app = apply_rskip(module, RSkipConfig(temporal=True))
        verify_module(module)
        _, mem = run_main(module, [6, 8], intrinsics=app.intrinsics())
        assert mem.read_global("out", 6) == golden_mem.read_global("out", 6)
