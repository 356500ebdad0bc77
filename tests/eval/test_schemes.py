import pytest

from repro.core.config import RSkipConfig
from repro.eval import PAPER_SCHEMES, fault_region, prepare, rskip_label
from repro.ir import verify_module
from repro.runtime import Interpreter
from repro.workloads import get_workload


class TestPrepare:
    @pytest.mark.parametrize("scheme", ["UNSAFE", "SWIFT", "SWIFT-R", "AR20", "AR100"])
    def test_prepare_verifies_and_runs(self, scheme):
        w = get_workload("sgemm")
        prepared = prepare(w, scheme)
        verify_module(prepared.module)
        inp = w.test_inputs(1, scale=0.4)[0]
        mem = w.fresh_memory(prepared.module, inp)
        interp = Interpreter(prepared.module, memory=mem)
        interp.register_intrinsics(prepared.intrinsics)
        interp.run(prepared.main, inp.args)

    def test_scheme_labels(self):
        assert rskip_label(0.2) == "AR20"
        assert rskip_label(1.0) == "AR100"
        assert PAPER_SCHEMES[0] == "UNSAFE"

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            prepare(get_workload("sgemm"), "BOGUS")
        # an explicit RSkip config does not rescue an unknown label
        with pytest.raises(ValueError, match="unknown scheme 'BOGUS'"):
            prepare(get_workload("sgemm"), "BOGUS", config=RSkipConfig())

    def test_rskip_prepared_carries_application(self):
        prepared = prepare(get_workload("sgemm"), "AR50")
        assert prepared.application is not None
        assert prepared.runtime is not None
        assert prepared.scheme == "AR50"

    def test_unsafe_has_no_intrinsics(self):
        prepared = prepare(get_workload("sgemm"), "UNSAFE")
        assert prepared.intrinsics == {}


class TestFaultRegion:
    def test_unsafe_region_is_loop_blocks(self):
        w = get_workload("sgemm")
        prepared = prepare(w, "UNSAFE")
        region = fault_region(prepared)
        assert region
        labels = {l for (f, l) in region.blocks}
        assert any(l.startswith("col") for l in labels)
        # the outer row loop blocks also belong to the detected loop? no:
        # only the detected (col) loop and its children
        assert all(not l.startswith("row.head") for l in labels)

    def test_swift_r_region_expands_through_provenance(self):
        w = get_workload("sgemm")
        unsafe_region = fault_region(prepare(w, "UNSAFE"))
        swiftr_region = fault_region(prepare(w, "SWIFT-R"))
        assert len(swiftr_region.blocks) > len(unsafe_region.blocks)

    def test_rskip_region_includes_body_functions(self):
        prepared = prepare(get_workload("sgemm"), "AR20")
        region = fault_region(prepared)
        layout = prepared.application.layouts[0]
        assert layout.body in region.funcs
        assert layout.dup in region.funcs
        assert layout.cp in region.funcs

    def test_blackscholes_region_includes_callee(self):
        prepared = prepare(get_workload("blackscholes"), "UNSAFE")
        region = fault_region(prepared)
        assert "BlkSchlsEqEuroNoDiv" in region.funcs


class TestRegistrySourcing:
    """The eval axes are enumerated from the scheme registry, so a
    registered scheme can never silently go missing from the studies
    (regression: the axes used to be hand-maintained literals)."""

    def test_every_campaign_default_in_perf_axis(self):
        from repro.eval.perf import PERF_SCHEMES
        from repro.pipeline import default_campaign_schemes

        assert ("UNSAFE",) + PERF_SCHEMES == tuple(default_campaign_schemes())

    def test_every_protection_family_in_skipmap_axis(self):
        from repro.eval.skipmap import DEFAULT_SCHEMES
        from repro.pipeline import all_descriptors, canonical_scheme

        covered = {canonical_scheme(s) for s in DEFAULT_SCHEMES if s}
        for descriptor in all_descriptors():
            if not descriptor.passes:
                continue  # UNSAFE: the None baseline column
            family_default = canonical_scheme(descriptor.passes[-1])
            assert family_default in covered, descriptor.name

    def test_protocol_schemes_prepare_like_any_other(self):
        from repro.eval import prepare

        for scheme in ("REPLAY2", "CKPT8"):
            prepared = prepare(get_workload("conv1d"), scheme)
            verify_module(prepared.module)
            assert prepared.application is not None
