"""Each oracle must pass on healthy pipelines and fire on broken ones."""
import pytest

from repro.difftest import (
    check_fault_metamorphic,
    check_pipeline,
    check_roundtrip,
    execute_module,
    generate,
    module_copy,
)
from repro.difftest.oracles import check_protection_coverage, first_diff
from repro.ir.function import Function
from repro.ir.instructions import Instr, Opcode
from repro.ir.module import Module
from repro.ir.types import F64
from repro.ir.values import Const
from repro.transforms import apply_swift
from repro.ir.verifier import verify_module

from .broken_passes import broken_cse

pytestmark = pytest.mark.difftest


# -- healthy pipelines pass ---------------------------------------------------
@pytest.mark.parametrize("pipeline", [
    ("dce",), ("cse", "simplify"), ("licm", "dce", "swift"),
    ("simplify", "swift-r"), ("clone", "rskip"),
])
def test_clean_pipelines_are_equivalent(pipeline):
    for index in (0, 2, 5):
        violations, transformed, _ = check_pipeline(
            generate(0, index).module, pipeline)
        assert violations == [], (index, pipeline, violations)
        assert transformed is not None


def test_clean_protections_uphold_fault_contract():
    for protection in ("swift", "swift-r", "rskip"):
        violations = check_fault_metamorphic(
            generate(0, 2).module, protection, samples=6, seed=1)
        assert violations == [], (protection, violations)


# -- O1 fires on a miscompiling pass ------------------------------------------
def test_o1_fires_on_broken_cse():
    """The rmw shape's load/store/load sequence exposes cross-store merging."""
    fired = False
    for index in range(40):
        program = generate(0, index)
        if program.shape != "rmw":
            continue
        baseline = execute_module(module_copy(program.module))
        work = module_copy(program.module)
        broken_cse(work)
        verify_module(work)
        if first_diff(baseline, execute_module(work)) is not None:
            fired = True
            break
    assert fired, "broken CSE never changed an rmw program's output"


def test_o1_fires_on_crashing_pass(monkeypatch):
    from repro.difftest import oracles

    def exploding_pass(module):
        raise RuntimeError("boom")

    monkeypatch.setitem(oracles.CLEANUP_PASSES, "dce", exploding_pass)
    violations, transformed, _ = check_pipeline(generate(0, 0).module, ("dce",))
    assert transformed is None
    assert any("raised RuntimeError" in v.detail for v in violations)


# -- O2 fires on unprintable modules ------------------------------------------
def test_o2_fires_on_unparseable_name():
    module = Module("bad")
    func = Function("has-dashes", [], F64)
    module.add_function(func)
    block = func.add_block("entry")
    block.append(Instr(Opcode.RET, args=(Const(0.0, F64),)))
    violations = check_roundtrip(module)
    assert violations and violations[0].oracle == "o2"


def test_o2_passes_on_generated_and_transformed_modules():
    module = generate(0, 1).module
    assert check_roundtrip(module) == []
    protected = module_copy(module)
    apply_swift(protected)
    assert check_roundtrip(protected) == []


# -- O3 fires on a no-op protection -------------------------------------------
def test_o3_coverage_fires_on_checkerless_swift():
    """A 'swift' that replicates but never inserts checkers is exactly
    ``apply_swift(sync_points=())`` — the static coverage check sees the
    unguarded sync points no dynamic sample could prove absent."""
    module = module_copy(generate(0, 2).module)
    apply_swift(module, sync_points=())
    violations = check_protection_coverage(module, "swift")
    assert any("unguarded sync operand" in v.detail for v in violations)


def test_o3_coverage_fires_on_wholly_inert_protection():
    """A protection pass that only sets the attribute is caught too."""
    module = module_copy(generate(0, 2).module)
    for func in module.functions.values():
        func.attrs["protected"] = "swift"
    violations = check_protection_coverage(module, "swift")
    assert any("no shadow registers" in v.detail for v in violations)


def test_o3_checkerless_swift_yields_violation_end_to_end():
    module = generate(0, 2).module
    prepared = module_copy(module)
    apply_swift(prepared, sync_points=())
    violations = check_fault_metamorphic(
        module, "swift", samples=4, seed=0,
        prepared=prepared, intrinsics={})
    assert violations, "checkerless swift passed the fault oracle"


# -- O3 over protocol families (workload-backed) ------------------------------
def _workload_o3(workload_name, protection, samples=6, seed=1, stats=None):
    from repro.workloads import get_workload

    workload = get_workload(workload_name)
    module = workload.build()
    inp = workload.test_inputs(1, seed=3, scale=0.35)[0]
    return check_fault_metamorphic(
        module, protection, samples=samples, seed=seed, stats=stats,
        main_args=inp.args,
        memory_factory=lambda: workload.fresh_memory(module, inp),
    )


def test_o3_descriptor_follows_verify_as():
    from repro.difftest.oracles import o3_descriptor

    # REPLAY<n> samples windows, so its full detected-or-masked contract
    # only holds at the every-window point; verify_as redirects there.
    assert o3_descriptor("replay2").name == "REPLAY1"
    assert o3_descriptor("replay").name == "REPLAY1"
    # non-redirecting schemes verify as themselves
    assert o3_descriptor("ckpt8").name == "CKPT8"
    assert o3_descriptor("swift-r").name == "SWIFT-R"


def test_o3_protocol_contracts_hold_on_workloads():
    """REPLAY upholds detected-or-masked and CKPT exactly-masked under
    region-scoped flips, with the checker demonstrably live (flips
    land)."""
    for protection in ("replay", "ckpt"):
        stats = {}
        violations = _workload_o3("conv1d", protection, stats=stats)
        assert violations == [], (protection, violations)
        assert stats.get("landed", 0) > 0, (protection, stats)


def test_o3_unprotected_scheme_is_vacuous():
    assert check_fault_metamorphic(generate(0, 2).module, "none") == []


def test_o3_fires_on_blind_protocol_checker(monkeypatch):
    """Teeth: neutralize the protocol comparison (every re-execution
    "matches") and the region flips must surface as violations."""
    import repro.core.protocol as protocol

    monkeypatch.setattr(protocol, "_same", lambda a, b: True)
    fired = []
    for protection in ("replay", "ckpt"):
        stats = {}
        violations = _workload_o3(
            "conv1d", protection, samples=8, seed=2, stats=stats)
        if violations:
            fired.append(protection)
    assert fired, "blind protocol checker passed the fault oracle"
