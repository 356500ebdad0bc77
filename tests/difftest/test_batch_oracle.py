"""O5: batch-lane equivalence against the reference interpreter.

Every lane of a batched run must reproduce its trial's exact
observables — outcome class, trap kind, detection flag, step counts,
return value and final memory — as if it had run alone on the
reference interpreter.  Replayed over the checked-in corpus (plain and
under every protection transform) and over freshly generated programs
through the difftest runner.
"""
import os

import pytest

from repro.difftest.generator import generate
from repro.difftest.oracles import PROTECTION_PASSES, check_batch_equivalence
from repro.difftest.runner import ORACLES, check_index
from repro.ir.parser import parse_module

pytestmark = [pytest.mark.difftest, pytest.mark.backend]

CORPUS_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "difftest", "corpus"
)


def corpus_modules():
    if not os.path.isdir(CORPUS_DIR):
        return []
    return sorted(f for f in os.listdir(CORPUS_DIR) if f.endswith(".ir"))


def _parse(filename):
    with open(os.path.join(CORPUS_DIR, filename), encoding="utf-8") as handle:
        return parse_module(handle.read())


@pytest.mark.parametrize("filename", corpus_modules())
def test_corpus_lanes_match_reference(filename):
    assert check_batch_equivalence(_parse(filename), seed=7) == []


@pytest.mark.parametrize("protection", sorted(PROTECTION_PASSES))
def test_corpus_protected_lanes_match_reference(protection):
    """Protected programs exercise intrinsic calls (and RSkip's per-lane
    runtime state) inside the batch — lane isolation must hold there too."""
    module = _parse(corpus_modules()[0])
    assert check_batch_equivalence(module, protection=protection,
                                   seed=11) == []


@pytest.mark.parametrize("index", range(6))
def test_generated_programs_via_runner(index):
    """The runner's o5 mode on the live generator stream: protection
    assignment, per-index seeding and violation plumbing included."""
    record = check_index(31, index, oracle="o5")
    assert record.violations == []


def test_o5_is_registered():
    assert "o5" in ORACLES


def test_o5_detects_a_seeded_lane_divergence(monkeypatch):
    """Sensitivity: if the batch engine's bit flipper disagrees with the
    fault model (flipping the wrong bit), lanes diverge from their
    reference trials and o5 must say so."""
    from repro.runtime import batch as batch_mod
    from repro.runtime.faults import flip_value

    # (program, seed) chosen so at least one drawn flip hits a live
    # register: a wrong-bit flip there cannot be architecturally masked
    module = generate(0, 1).module
    assert check_batch_equivalence(module, seed=0) == []

    monkeypatch.setattr(
        batch_mod, "flip_value",
        lambda value, bit: flip_value(value, (bit + 1) & 63))
    violations = check_batch_equivalence(module, seed=0)
    assert violations and all(v.oracle == "o5" for v in violations)


#: One call does all the work, and the callee ends in a long block: its
#: last golden snapshot lies inside the callee, so a trial whose fault
#: acts in that block has no snapshot left to compare with and hands
#: off as the caller re-enters its block after the call.
_TAIL_CALL_IR = """module handoff_tail

global @a 8 f64 = [0.5, 1.25, -0.75, 2.0, 1.5, -1.0, 0.25, 3.0]
global @out 8 f64

func @work(%n: i64) -> f64 {
entry:
  %i = mov 0:i64
  %t = mov 0.0:f64
  %base = mov @a
  %outp = mov @out
  br head
head:
  %c = icmp lt %i, %n
  cbr %c, body, tail
body:
  %p = add %base, %i
  %x = load %p : f64
  %y = fmul %x, %x
  %q = add %outp, %i
  store %y, %q
  %t = fadd %t, %y
  %i = add %i, 1:i64
  br head
tail:
  %u1 = fmul %t, 0.5:f64
  %u2 = fadd %u1, %t
  %u3 = fmul %u2, %u1
  %u4 = fsub %u3, %u2
  %u5 = fadd %u4, 1.0:f64
  %u6 = fmul %u5, %u5
  %u7 = fadd %u6, %u1
  %u8 = fsub %u7, %u3
  %u9 = fadd %u8, %u4
  %u10 = fmul %u9, 0.25:f64
  store %u10, %outp
  ret %u10
}

func @main() -> f64 {
entry:
  %r = call @work(8:i64) : f64
  %s = fadd %r, 1.0:f64
  ret %s
}
"""


def test_o5_detects_a_hand_off_at_the_wrong_instruction(monkeypatch):
    """Sensitivity: a hand-off hook that exports a frame re-entered
    mid-block (a caller continuing after its callee returned) as if it
    paused at the block's start re-executes the block's head on the
    compiled backend, and o5 must say so.  The program's seeded plans
    include a value flip of a register live in the callee's final block
    (lane 7), which hands off as the caller re-enters its block; a
    masked flip settles as the golden row and reaches no hand-off."""
    from repro.runtime.prefix import HandOff

    module = parse_module(_TAIL_CALL_IR)
    assert check_batch_equivalence(module, seed=176) == []

    take = HandOff.take
    monkeypatch.setattr(HandOff, "take", lambda self, interp, label, index:
                        take(self, interp, label, 0))
    violations = check_batch_equivalence(module, seed=176)
    assert violations and all(v.oracle == "o5" and "(compiled)" in v.detail
                              for v in violations)
