import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.eval.charts import bar, bar_chart, stacked_chart
from repro.runtime import CompiledExecutor, Interpreter

from ..conftest import build_call_module, build_dot_module, seed_memory


class TestReferenceInterpreter:
    """The reference :class:`Interpreter` and the fast compiled backend
    agree on whole programs."""

    @pytest.mark.parametrize("builder,args", [
        (build_dot_module, [5, 8]),
        (build_call_module, [5]),
    ])
    def test_agrees_with_fast_interpreter(self, builder, args):
        module = builder()
        mem_ref = seed_memory(module)
        ref = Interpreter(module, memory=mem_ref).run("main", args)

        mem_fast = seed_memory(module)
        fast = CompiledExecutor(module, memory=mem_fast).run("main", args)

        assert fast.steps == ref.steps
        assert fast.value == ref.value
        assert mem_fast.read_global("out", 5) == mem_ref.read_global("out", 5)

    def test_random_programs_agree(self):
        from ..ir.test_property_roundtrip import build_random_program

        ops = [("fadd", 0, 1), ("fmul", 1, 0), ("add", 0, 1), ("exp", 0, 0)]
        module = build_random_program(ops)
        ref = Interpreter(module).run("main", [1.5]).value
        fast = CompiledExecutor(module).run("main", [1.5]).value
        assert fast == ref

    def test_intrinsics_supported(self):
        from repro.core import RSkipConfig, apply_rskip
        from repro.runtime import outputs_equal

        module = build_dot_module()
        golden_mem = seed_memory(module)
        Interpreter(module, memory=golden_mem).run("main", [5, 8])

        protected = build_dot_module()
        app = apply_rskip(protected, RSkipConfig())
        mem = seed_memory(protected)
        fast = CompiledExecutor(protected, memory=mem)
        fast.register_intrinsics(app.intrinsics())
        fast.run("main", [5, 8])
        assert outputs_equal(
            golden_mem.read_global("out", 5), mem.read_global("out", 5)
        )


class TestCharts:
    def test_bar_scales(self):
        assert bar(10, 10, width=10) == "█" * 10
        assert bar(5, 10, width=10).startswith("█" * 5)
        assert bar(0, 10, width=10) == ""
        assert bar(20, 10, width=10) == "█" * 10  # clamped

    def test_bar_zero_max(self):
        assert bar(1, 0) == ""

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0, max_value=100), st.floats(min_value=1, max_value=100))
    def test_bar_length_bounded(self, value, maximum):
        assert len(bar(value, maximum, width=30)) <= 30

    def test_bar_chart_layout(self):
        text = bar_chart([("alpha", 1.0), ("b", 2.0)], width=8)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("alpha")
        assert "2.00" in lines[1]

    def test_stacked_chart_shares(self):
        text = stacked_chart(
            [("UNSAFE", {"Correct": 0.8, "SDC": 0.2})],
            categories=["Correct", "SDC"],
            width=10,
        )
        assert "UNSAFE" in text
        assert "Correct=80%" in text
        assert "[" in text  # legend
