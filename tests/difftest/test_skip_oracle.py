"""O6: exhaustive single-skip model checking.

The golden run's segments name every in-region dynamic instruction;
the oracle then injects a skip at each named site — per trial wholly on
the reference interpreter (fast-forwarded from the golden prefix, as
campaign trials are) and again handed off to the compiled backend once
the skip has acted, as default-backend campaigns run it — and demands
(1) the enumeration provably covers the dynamic stream, (2) every lane
matches its reference trial byte-for-byte, and (3) under the
duplication schemes a skipped *shadow* instruction never ends as
silent corruption.  The fast subset runs on every tier-1 pass; full
multi-scheme sweeps hide behind the ``slow`` marker.
"""
import pytest

from repro.difftest.generator import generate
from repro.difftest.oracles import (
    PROTECTION_PASSES,
    skip_site_map,
    check_skip_exhaustive,
)
from repro.difftest.runner import ORACLES, check_index

pytestmark = [pytest.mark.difftest]


def test_o6_is_registered():
    assert "o6" in ORACLES


@pytest.mark.parametrize("index,site_cap", [(0, 400), (3, 400), (1, 600)])
def test_generated_programs_exhaustive(index, site_cap):
    """At least three generated programs with *exhaustive* skip-site
    maps — every dynamic instruction enumerated (asserted against the
    golden run's total by the oracle) and every site byte-identical
    between the reference and the handed-off trial.  Index 1 runs with a raised
    cap so all three maps are full enumerations, not stride samples."""
    module = generate(0, index).module
    assert skip_site_map(module, site_cap=site_cap).exhaustive
    assert check_skip_exhaustive(module, site_cap=site_cap) == []


@pytest.mark.parametrize("index", range(3))
def test_generated_programs_via_runner(index):
    """The runner's o6 mode end to end: protection assignment, seeding
    and violation plumbing included."""
    record = check_index(23, index, oracle="o6")
    assert record.violations == []


def test_site_map_matches_counting_run():
    """The standalone map half of O6: every site enumerated, each named
    by the opcode the counting pre-run saw at that step."""
    module = generate(0, 0).module
    smap = skip_site_map(module)
    assert smap.exhaustive
    assert smap.total_sites == len(smap.sites)
    assert sum(smap.tally().values()) == smap.total_sites
    assert all(s.outcome in ("detected", "masked", "sdc", "trap", "hang")
               for s in smap.sites)


def test_site_cap_forces_sampling():
    module = generate(0, 0).module
    smap = skip_site_map(module, site_cap=10)
    assert not smap.exhaustive
    assert len(smap.sites) <= 10 < smap.total_sites


def test_unprotected_program_has_skip_sdc():
    """Sanity of the vulnerability story: with no protection, some
    skipped store/accumulate sites must corrupt the output silently."""
    module = generate(0, 0).module
    assert skip_site_map(module).tally().get("sdc", 0) > 0


def test_protection_reduces_skip_sdc_rate():
    module = generate(0, 0).module
    plain = skip_site_map(module)
    prot = skip_site_map(module, "swift-r")
    rate = lambda m: m.tally().get("sdc", 0) / len(m.sites)
    assert rate(prot) < rate(plain)


def test_o6_detects_a_seeded_skip_divergence(monkeypatch):
    """Sensitivity: if the hand-off passed a skip-burst trial to the
    compiled backend while instructions of its burst were still to be
    dropped, the compiled backend would execute them, trials would
    diverge from their reference runs and o6 must say so."""
    from repro.runtime import prefix as prefix_mod

    module = generate(0, 0).module
    assert check_skip_exhaustive(module, burst=True) == []

    real_take = prefix_mod.HandOff.take

    def eager_take(self, interp, label, index):
        left, interp._skip_left = interp._skip_left, 0
        try:
            return real_take(self, interp, label, index)
        finally:
            interp._skip_left = left

    monkeypatch.setattr(prefix_mod.HandOff, "take", eager_take)
    violations = check_skip_exhaustive(module, burst=True)
    assert violations and all(v.oracle == "o6" for v in violations)


def test_o6_checks_prefix_fast_forwarding(monkeypatch):
    """Sensitivity: O6's reference trials fast-forward from golden-run
    snapshots, as campaign trials do.  If a restored snapshot dropped the
    memory the golden run had written, those trials diverge from their
    batch lanes and o6 must say so."""
    from repro.runtime import prefix as prefix_mod

    module = generate(0, 0).module
    assert check_skip_exhaustive(module) == []

    real_state_for = prefix_mod.GoldenPrefix.state_for

    def state_for_without_patch(self, step, memory, runtime=None):
        memory.patch = lambda cells, brk: None  # skip the memory image
        return real_state_for(self, step, memory, runtime)

    monkeypatch.setattr(prefix_mod.GoldenPrefix, "state_for",
                        state_for_without_patch)
    violations = check_skip_exhaustive(module)
    assert violations and all(v.oracle == "o6" for v in violations)


@pytest.mark.slow
@pytest.mark.parametrize("protection", sorted(PROTECTION_PASSES))
def test_full_sweep_under_every_protection(protection):
    """Every scheme, three programs, bursts included."""
    for index in range(3):
        module = generate(0, index).module
        assert check_skip_exhaustive(module, protection, burst=True) == []


@pytest.mark.slow
def test_full_sweep_generator_stream():
    for index in range(10):
        record = check_index(5, index, oracle="o6")
        assert record.violations == []
