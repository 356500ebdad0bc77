import pytest

from repro.ir import Opcode, verify_module
from repro.runtime import (
    FaultDetectedError,
    FaultPlan,
    Interpreter,
    TrapError,
)
from repro.transforms import (
    DETECT_INTRINSIC,
    apply_swift,
    apply_swift_r,
    protect_function,
)

from ..conftest import (
    build_call_module,
    build_dot_module,
    build_rmw_module,
    run_main,
    seed_memory,
)


def detect_handler(interp, args):
    raise FaultDetectedError("mismatch")


BUILDERS = [build_dot_module, build_call_module, build_rmw_module]


class TestSemanticPreservation:
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_swift_r_preserves_output(self, builder):
        args = [6, 8] if builder is not build_call_module else [6]
        _, mem_plain = run_main(builder(), args)
        protected = builder()
        apply_swift_r(protected)
        verify_module(protected)
        _, mem_prot = run_main(protected, args)
        assert mem_plain.read_global("out", 6) == mem_prot.read_global("out", 6)

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_swift_preserves_output(self, builder):
        args = [6, 8] if builder is not build_call_module else [6]
        _, mem_plain = run_main(builder(), args)
        protected = builder()
        apply_swift(protected)
        verify_module(protected)
        _, mem_prot = run_main(
            protected, args, intrinsics={DETECT_INTRINSIC: detect_handler}
        )
        assert mem_plain.read_global("out", 6) == mem_prot.read_global("out", 6)


class TestOverheads:
    def test_swift_r_instruction_overhead_in_paper_range(self, dot_module):
        baseline, _ = run_main(build_dot_module(), [8, 8])
        apply_swift_r(dot_module)
        protected, _ = run_main(dot_module, [8, 8])
        ratio = protected.steps / baseline.steps
        assert 2.3 <= ratio <= 4.0  # paper: ~3.48x on average

    def test_swift_cheaper_than_swift_r(self):
        m1 = build_dot_module()
        apply_swift(m1)
        r1, _ = run_main(m1, [8, 8], intrinsics={DETECT_INTRINSIC: detect_handler})
        m2 = build_dot_module()
        apply_swift_r(m2)
        r2, _ = run_main(m2, [8, 8])
        assert r1.steps < r2.steps

    def test_report_counts(self, dot_module):
        reports = apply_swift_r(dot_module)
        assert len(reports) == 1
        rep = reports[0]
        assert rep.replicated > 0
        assert rep.sync_checks > 0


class TestFaultBehavior:
    def _swift_r_run_with_fault(self, step, bit, pick):
        module = build_dot_module()
        apply_swift_r(module)
        mem = seed_memory(module)
        interp = Interpreter(
            module,
            memory=mem,
            fault_plan=FaultPlan(step=step, kind="value", bit=bit, pick=pick),
            max_steps=5_000_000,
        )
        try:
            interp.run("main", [6, 8])
        except TrapError:
            return None
        return mem.read_global("out", 6)

    def test_swift_r_recovers_most_value_faults(self):
        _, mem = run_main(build_dot_module(), [6, 8])
        golden = mem.read_global("out", 6)
        recovered = 0
        trials = 0
        for k in range(40):
            out = self._swift_r_run_with_fault(
                step=100 + k * 45, bit=50, pick=(k * 0.13) % 1.0
            )
            trials += 1
            if out == golden:
                recovered += 1
        # TMR voting should recover the overwhelming majority
        assert recovered >= trials * 0.8

    def test_unprotected_is_more_fragile(self):
        _, mem = run_main(build_dot_module(), [6, 8])
        golden = mem.read_global("out", 6)

        def unprotected_fault(step, pick):
            module = build_dot_module()
            mem2 = seed_memory(module)
            interp = Interpreter(
                module,
                memory=mem2,
                fault_plan=FaultPlan(step=step, kind="value", bit=50, pick=pick),
                max_steps=5_000_000,
            )
            try:
                interp.run("main", [6, 8])
            except TrapError:
                return None
            return mem2.read_global("out", 6)

        unsafe_bad = sum(
            1
            for k in range(40)
            if unprotected_fault(20 + k * 15, (k * 0.13) % 1.0) != golden
        )
        swiftr_bad = sum(
            1
            for k in range(40)
            if self._swift_r_run_with_fault(100 + k * 45, 50, (k * 0.13) % 1.0) != golden
        )
        assert swiftr_bad < unsafe_bad

    def test_swift_flags_injected_mismatch(self):
        """Scan injection points until SWIFT's comparison fires."""
        detections = 0
        for k in range(60):
            module = build_dot_module()
            apply_swift(module)
            mem = seed_memory(module)
            interp = Interpreter(
                module,
                memory=mem,
                fault_plan=FaultPlan(step=50 + k * 60, kind="value", bit=50,
                                     pick=(k * 0.17) % 1.0),
                max_steps=5_000_000,
            )
            interp.register_intrinsics({DETECT_INTRINSIC: detect_handler})
            try:
                interp.run("main", [6, 8])
            except FaultDetectedError:
                detections += 1
            except TrapError:
                pass
        assert detections > 0


class TestMechanics:
    def test_idempotency_guard(self, dot_module):
        apply_swift_r(dot_module)
        assert apply_swift_r(dot_module) == []  # already protected, skipped
        with pytest.raises(ValueError, match="already protected"):
            protect_function(dot_module.get_function("main"), 2)

    def test_exclude_funcs(self, call_module):
        apply_swift_r(call_module, exclude_funcs=["g"])
        g = call_module.get_function("g")
        assert not g.attrs.get("protected")
        assert call_module.get_function("main").attrs.get("protected")

    def test_exclude_blocks_get_boundary_copies(self, dot_module):
        func = dot_module.get_function("main")
        entry = func.block_order()[0]
        new_func, report = protect_function(func, 2, exclude_labels=[entry])
        dot_module.functions["main"] = new_func
        verify_module(dot_module)
        assert report.boundary_copies > 0
        _, mem = run_main(dot_module, [6, 8])
        _, mem_ref = run_main(build_dot_module(), [6, 8])
        assert mem.read_global("out", 6) == mem_ref.read_global("out", 6)

    def test_provenance_recorded(self, dot_module):
        apply_swift_r(dot_module)
        func = dot_module.get_function("main")
        provenance = func.attrs["provenance"]
        split = [l for l in func.blocks if ".sr" in l]
        assert split
        for label in split:
            assert provenance[label] in build_dot_module().get_function("main").blocks

    def test_loads_not_duplicated(self, dot_module):
        baseline = sum(
            1 for i in build_dot_module().get_function("main").instructions()
            if i.op is Opcode.LOAD
        )
        apply_swift_r(dot_module)
        protected = sum(
            1 for i in dot_module.get_function("main").instructions()
            if i.op is Opcode.LOAD
        )
        assert protected == baseline  # ECC memory: loads execute once

    def test_stores_not_duplicated(self, dot_module):
        baseline = sum(
            1 for i in build_dot_module().get_function("main").instructions()
            if i.op is Opcode.STORE
        )
        apply_swift_r(dot_module)
        protected = sum(
            1 for i in dot_module.get_function("main").instructions()
            if i.op is Opcode.STORE
        )
        assert protected == baseline
