import pytest

from repro.core import RSkipConfig, apply_rskip
from repro.ir import Opcode, verify_module
from repro.runtime import FaultPlan, Interpreter, TrapError

from ..conftest import (
    build_call_module,
    build_dot_module,
    build_rmw_module,
    run_main,
    seed_memory,
)

BUILDERS = {
    "dot": (build_dot_module, [8, 8]),
    "call": (build_call_module, [8]),
    "rmw": (build_rmw_module, [8, 8]),
}


def golden_out(name):
    builder, args = BUILDERS[name]
    _, mem = run_main(builder(), args)
    return mem.read_global("out", args[0])


def rskip_run(name, config, protect=True):
    builder, args = BUILDERS[name]
    module = builder()
    app = apply_rskip(module, config, protect=protect)
    verify_module(module)
    result, mem = run_main(module, args, intrinsics=app.intrinsics())
    return app, result, mem.read_global("out", args[0])


class TestTransformStructure:
    def test_reduction_layout(self):
        module = build_dot_module()
        app = apply_rskip(module, RSkipConfig())
        assert len(app.layouts) == 1
        layout = app.layouts[0]
        assert layout.mode == "reduction"
        assert layout.body in module.functions
        assert layout.dup in module.functions
        assert layout.cp in module.functions
        assert not layout.rmw

    def test_call_layout(self):
        module = build_call_module()
        app = apply_rskip(module, RSkipConfig())
        layout = app.layouts[0]
        assert layout.mode == "call"
        assert layout.callee == "g"
        assert layout.callee_dup == "g.dup"
        assert layout.n_args == 2
        assert layout.body is None

    def test_rmw_layout(self):
        module = build_rmw_module()
        app = apply_rskip(module, RSkipConfig())
        layout = app.layouts[0]
        assert layout.mode == "reduction"
        assert layout.rmw

    def test_skeleton_is_conventionally_protected(self):
        module = build_dot_module()
        app = apply_rskip(module, RSkipConfig())
        main = module.get_function("main")
        assert main.attrs.get("protected") == "swift-r"
        cp = module.get_function(app.layouts[0].cp)
        assert cp.attrs.get("protected") == "swift-r"

    def test_body_functions_left_unprotected(self):
        module = build_dot_module()
        app = apply_rskip(module, RSkipConfig())
        layout = app.layouts[0]
        assert not module.get_function(layout.body).attrs.get("protected")
        assert not module.get_function(layout.dup).attrs.get("protected")

    def test_dup_registers_renamed(self):
        module = build_dot_module()
        app = apply_rskip(module, RSkipConfig())
        dup = module.get_function(app.layouts[0].dup)
        assert all(p.name.endswith(".d") for p in dup.params)

    def test_unprotected_variant(self):
        module = build_dot_module()
        app = apply_rskip(module, RSkipConfig(), protect=False)
        assert not module.get_function("main").attrs.get("protected")
        verify_module(module)


class TestSemanticPreservation:
    @pytest.mark.parametrize("name", ["dot", "call", "rmw"])
    @pytest.mark.parametrize("ar", [0.0, 0.2, 1.0])
    def test_output_bitwise_identical(self, name, ar):
        golden = golden_out(name)
        app, result, out = rskip_run(name, RSkipConfig(acceptable_range=ar))
        assert out == golden

    @pytest.mark.parametrize("name", ["dot", "call", "rmw"])
    def test_output_identical_without_protection_pass(self, name):
        golden = golden_out(name)
        _, _, out = rskip_run(name, RSkipConfig(), protect=False)
        assert out == golden

    def test_cp_fallback_path(self):
        golden = golden_out("dot")
        module = build_dot_module()
        app = apply_rskip(module, RSkipConfig())
        app.runtime.loop(0).disabled = True  # force the CP version
        _, mem = run_main(module, [8, 8], intrinsics=app.intrinsics())
        assert mem.read_global("out", 8) == golden
        assert app.runtime.loop(0).stats.executions_cp > 0
        assert app.runtime.loop(0).stats.elements == 0


class TestSkipBehavior:
    def test_ar0_is_exact_validation(self):
        """At AR0 an element skips only when the linear prediction matches
        bit-exactly — everything else is re-computed."""
        app, _, _ = rskip_run("dot", RSkipConfig(acceptable_range=0.0))
        stats = app.runtime.total_stats()
        assert stats.elements > 0
        assert stats.recomputed + stats.skipped == stats.elements
        assert stats.recomputed > 0
        app_wide, _, _ = rskip_run("dot", RSkipConfig(acceptable_range=1.0))
        assert stats.skip_rate <= app_wide.runtime.total_stats().skip_rate

    def test_wide_ar_skips(self):
        app, _, _ = rskip_run("dot", RSkipConfig(acceptable_range=1.0))
        assert app.runtime.total_stats().skip_rate > 0.5

    def test_skip_reduces_instructions(self):
        builder, args = BUILDERS["dot"]
        base, _ = run_main(builder(), args)
        app0, r0, _ = rskip_run("dot", RSkipConfig(acceptable_range=0.0))
        app1, r1, _ = rskip_run("dot", RSkipConfig(acceptable_range=1.0))
        assert r1.steps < r0.steps
        # and the paper's core claim: cheaper than ~2x re-execution
        assert r1.steps / base.steps < r0.steps / base.steps

    def test_call_mode_buffers_args(self):
        app, _, _ = rskip_run("call", RSkipConfig(acceptable_range=0.0))
        stats = app.runtime.total_stats()
        assert stats.recomputed == stats.elements  # AR0: all re-computed via g.dup


class TestFaultSemantics:
    def _faulted(self, ar, step, bit, pick, region_func):
        module = build_dot_module()
        app = apply_rskip(module, RSkipConfig(acceptable_range=ar))
        from repro.runtime import Region

        region = Region(funcs={region_func.format(**{"b": app.layouts[0].body, "d": app.layouts[0].dup})})
        mem = seed_memory(module)
        interp = Interpreter(
            module,
            memory=mem,
            fault_plan=FaultPlan(step=step, kind="value", bit=bit, pick=pick),
            fault_region=region,
            max_steps=10_000_000,
        )
        interp.register_intrinsics(app.intrinsics())
        try:
            interp.run("main", [8, 8])
        except TrapError:
            return app, None
        return app, mem.read_global("out", 8)

    def test_fault_in_redundant_copy_is_harmless(self):
        """Faults in body.dup never change the program output."""
        golden = golden_out("dot")
        clean = 0
        trials = 0
        for k in range(24):
            app, out = self._faulted(0.0, step=20 + 37 * k, bit=52, pick=(k * 0.11) % 1, region_func="{d}")
            if out is None:
                continue
            trials += 1
            if out == golden:
                clean += 1
        assert trials > 0
        assert clean == trials

    def test_big_fault_in_original_is_recovered_at_ar0(self):
        """AR0 validates exactly: any corruption of the original value is
        caught by re-computation and fixed by the vote."""
        golden = golden_out("dot")
        recovered, trials = 0, 0
        for k in range(24):
            app, out = self._faulted(0.0, step=20 + 37 * k, bit=60, pick=(k * 0.11) % 1, region_func="{b}")
            if out is None:
                continue
            trials += 1
            if out == golden:
                recovered += 1
        assert trials > 0
        assert recovered >= trials * 0.7

    def test_small_fault_can_escape_wide_ar(self):
        """The paper's false negatives: a low-mantissa flip inside the
        acceptable range survives fuzzy validation."""
        golden = golden_out("dot")
        escaped = 0
        for k in range(40):
            app, out = self._faulted(1.0, step=15 + 29 * k, bit=10, pick=(k * 0.07) % 1, region_func="{b}")
            if out is not None and out != golden:
                escaped += 1
        assert escaped > 0

