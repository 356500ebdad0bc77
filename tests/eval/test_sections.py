"""Section partition of the injection region (incremental campaigns)."""
import pytest

from repro.difftest.generator import generate_phased, mutate_function
from repro.eval import partition_sections, prepare
from repro.eval.fault_campaign import campaign_context
from repro.eval.schemes import PreparedProgram
from repro.eval.sections import function_section_fingerprint
from repro.ir.parser import parse_module
from repro.ir.printer import format_module
from repro.workloads import get_workload

SCALE = 0.3


def _partition(workload_name, scheme):
    workload = get_workload(workload_name)
    inp = workload.test_inputs(1, seed=18, scale=SCALE)[0]
    prepared = prepare(workload, scheme)
    ctx = campaign_context(prepared, workload, inp)
    part = partition_sections(prepared, workload, ctx)
    return workload, inp, prepared, ctx, part


def _reprinted(prepared):
    """The same prepared program through a print/parse round trip."""
    module = parse_module(format_module(prepared.module))
    module.name = prepared.module.name
    return PreparedProgram(
        prepared.scheme, module, prepared.intrinsics, prepared.application,
        prepared.original_targets, prepared.main,
    )


class TestCoverage:
    @pytest.mark.parametrize("workload,scheme", [
        ("conv1d", "UNSAFE"),
        ("lud", "UNSAFE"),
        ("blackscholes", "SWIFT"),
    ])
    def test_partition_tiles_region_exactly(self, workload, scheme):
        """Sections cover [0, region_steps) with no gaps and no overlaps."""
        _, _, _, ctx, part = _partition(workload, scheme)
        assert part.region_steps == ctx.region_steps
        assert sum(s.step_count for s in part.sections) == ctx.region_steps
        segments = sorted(
            seg for section in part.sections for seg in section.segments)
        cursor = 0
        for start, length in segments:
            assert start == cursor, "gap or overlap in the partition"
            assert length > 0
            cursor += length
        assert cursor == ctx.region_steps

    def test_global_step_is_a_bijection(self):
        """Every region step is reachable from exactly one (section,
        local step) pair — the draw-local-then-map scheme loses nothing."""
        _, _, _, ctx, part = _partition("conv1d", "UNSAFE")
        seen = set()
        for section in part.sections:
            for local in range(section.step_count):
                step = section.global_step(local)
                assert step not in seen
                seen.add(step)
        assert seen == set(range(ctx.region_steps))

    def test_lud_splits_into_multiple_loop_sections(self):
        """lud has two top-level target loops: the partition must keep
        them apart (that separation is what incremental reuse buys)."""
        _, _, _, _, part = _partition("lud", "UNSAFE")
        loop_sections = [s for s in part.sections if s.name.startswith("main:")]
        assert len(loop_sections) >= 2


class TestFingerprints:
    def test_stable_under_reprint(self):
        """A no-op print/parse round trip changes nothing: same sections,
        same fingerprints, same step windows."""
        workload, inp, prepared, ctx, part = _partition("conv1d", "UNSAFE")
        reprinted = _reprinted(prepared)
        again = partition_sections(
            reprinted, workload, campaign_context(reprinted, workload, inp))
        assert [(s.name, s.fingerprint, s.segments) for s in part.sections] \
            == [(s.name, s.fingerprint, s.segments) for s in again.sections]

    def test_one_instruction_edit_changes_only_the_owner(self):
        """Mutating one function moves its section fingerprint and leaves
        every other function section byte-stable."""
        module = generate_phased(3, 7).module
        mutated = mutate_function(module, "phase1", seed=11)
        for name in sorted(module.functions):
            before = function_section_fingerprint(module, name)
            after = function_section_fingerprint(mutated, name)
            # main's closure reaches every phase, so it moves too
            expect_change = name in ("phase1", "main")
            assert (before != after) == expect_change, name

    def test_callee_edit_invalidates_caller_loop_section(self):
        """A loop section's fingerprint covers its static call closure:
        editing the callee of blackscholes' loop must invalidate the loop
        section even though the loop's own blocks are untouched."""
        workload, inp, prepared, ctx, part = _partition("blackscholes", "UNSAFE")
        callee = "BlkSchlsEqEuroNoDiv"
        assert f"@{callee}" in {s.name for s in part.sections}

        edited = _reprinted(prepared)
        mutated = mutate_function(edited.module, callee, seed=4)
        mutated.name = edited.module.name
        edited.module = mutated
        again = partition_sections(
            edited, workload, campaign_context(edited, workload, inp))

        after_by_name = {s.name: s for s in again.sections}
        for section in part.sections:
            after = after_by_name[section.name]
            if section.name.startswith("main:") or section.name == f"@{callee}":
                assert after.fingerprint != section.fingerprint, section.name
            else:
                assert after.fingerprint == section.fingerprint, section.name
