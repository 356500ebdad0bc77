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


def test_o5_detects_a_hand_off_at_the_wrong_instruction(monkeypatch):
    """Sensitivity: a hand-off hook that exports a frame re-entered
    mid-block (a caller continuing after its callee returned) as if it
    paused at the block's start re-executes the block's head on the
    compiled backend, and o5 must say so."""
    from repro.runtime.prefix import HandOff

    module = _parse(corpus_modules()[0])  # the corpus program with calls
    assert check_batch_equivalence(module, seed=7) == []

    take = HandOff.take
    monkeypatch.setattr(HandOff, "take", lambda self, interp, label, index:
                        take(self, interp, label, 0))
    violations = check_batch_equivalence(module, seed=7)
    assert violations and all(v.oracle == "o5" and "(compiled)" in v.detail
                              for v in violations)
