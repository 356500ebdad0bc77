"""The shrinker must reduce a real miscompile to a tiny counterexample."""
import pytest

from repro.difftest import generate, module_copy, shrink_module, instruction_count
from repro.difftest.oracles import execute_module, first_diff
from repro.ir.printer import format_module
from repro.ir.parser import parse_module
from repro.ir.verifier import verify_module

from .broken_passes import broken_cse

pytestmark = pytest.mark.difftest


def _miscompiled_by_broken_cse(module) -> bool:
    baseline = execute_module(module)
    work = module_copy(module)
    broken_cse(work)
    verify_module(work)
    return first_diff(baseline, execute_module(work)) is not None


def _first_failing_program():
    for index in range(40):
        program = generate(0, index)
        if program.shape != "rmw":
            continue
        try:
            if _miscompiled_by_broken_cse(program.module):
                return program
        except Exception:
            continue
    raise AssertionError("no seed-0 program exposes the broken CSE")


def test_broken_pass_shrinks_to_small_counterexample():
    program = _first_failing_program()
    original = instruction_count(program.module)
    small = shrink_module(program.module, _miscompiled_by_broken_cse)
    reduced = instruction_count(small)
    assert reduced <= 15, f"only shrank {original} -> {reduced}"
    # the minimized module is still a valid, replayable failure
    verify_module(small)
    assert _miscompiled_by_broken_cse(small)
    replayed = parse_module(format_module(small))
    assert _miscompiled_by_broken_cse(replayed)
    # and the input module was not mutated by shrinking
    assert instruction_count(program.module) == original


def test_shrink_rejects_passing_input():
    program = generate(0, 0)
    with pytest.raises(ValueError, match="does not fail"):
        shrink_module(program.module, lambda module: False)


_TINY_FAILING = """\
module tiny
global @out 4 f64
func @main() -> f64 {
entry:
  %p = mov @out
  %a = load %p : f64
  store 1.0:f64, %p
  %b = load %p : f64
  store %b, %p
  ret %a
}
"""


def test_shrink_handles_handwritten_module():
    module = parse_module(_TINY_FAILING)
    assert _miscompiled_by_broken_cse(module)
    small = shrink_module(module, _miscompiled_by_broken_cse)
    assert instruction_count(small) <= instruction_count(module)
    assert _miscompiled_by_broken_cse(small)


def test_shrink_treats_predicate_crash_as_pass():
    """A predicate exception on a candidate must not abort the shrink."""
    module = parse_module(_TINY_FAILING)

    def flaky(candidate):
        if instruction_count(candidate) < 5:
            raise RuntimeError("candidate got too small to even run")
        return _miscompiled_by_broken_cse(candidate)

    small = shrink_module(module, flaky)
    assert instruction_count(small) >= 5
    assert _miscompiled_by_broken_cse(small)
