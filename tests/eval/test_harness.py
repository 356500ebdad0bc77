import pytest

from repro.core import RSkipConfig
from repro.core import PAPER_ACCEPTABLE_RANGES
from repro.eval import Harness
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def sgemm_harness():
    return Harness(get_workload("sgemm"), scale=0.4, verify=True)


@pytest.fixture(scope="module")
def sgemm_records(sgemm_harness):
    inp = sgemm_harness.workload.test_inputs(1, scale=0.4)[0]
    return sgemm_harness.run_all(["SWIFT-R", "AR20", "AR100"], inp)


class TestRunAll:
    def test_unsafe_is_baseline(self, sgemm_records):
        base = sgemm_records["UNSAFE"]
        assert base.correct is True
        norm = base.normalized(base)
        assert norm == {"time": 1.0, "instructions": 1.0, "ipc": 1.0}

    def test_all_schemes_correct(self, sgemm_records):
        for scheme, rec in sgemm_records.items():
            assert rec.correct, f"{scheme} corrupted the output"

    def test_overhead_ordering(self, sgemm_records):
        base = sgemm_records["UNSAFE"]
        swift_r = sgemm_records["SWIFT-R"].normalized(base)
        ar100 = sgemm_records["AR100"].normalized(base)
        # the headline result: RSkip at AR100 is cheaper than SWIFT-R
        assert ar100["instructions"] < swift_r["instructions"]
        assert ar100["time"] < swift_r["time"]
        assert swift_r["instructions"] > 2.0

    def test_skip_rate_only_for_rskip(self, sgemm_records):
        assert sgemm_records["SWIFT-R"].skip_rate is None
        assert sgemm_records["AR20"].skip_rate is not None
        assert 0.0 <= sgemm_records["AR20"].skip_rate <= 1.0

    def test_wider_ar_skips_no_less(self, sgemm_records):
        assert (
            sgemm_records["AR100"].skip_rate
            >= sgemm_records["AR20"].skip_rate - 0.05
        )


class TestTraining:
    def test_profiles_cached(self, sgemm_harness):
        p1 = sgemm_harness.profiles_for(0.2)
        p2 = sgemm_harness.profiles_for(0.2)
        assert p1 is p2

    def test_profiles_differ_per_ar(self, sgemm_harness):
        p20 = sgemm_harness.profiles_for(0.2)
        p100 = sgemm_harness.profiles_for(1.0)
        assert p20 is not p100

    def test_traces_recorded_once(self, sgemm_harness):
        sgemm_harness.profiles_for(0.5)
        traces = sgemm_harness._traces
        sgemm_harness.profiles_for(0.8)
        assert sgemm_harness._traces is traces

    def test_blackscholes_trains_memo(self):
        harness = Harness(get_workload("blackscholes"), scale=0.3, timing=False)
        profiles = harness.profiles_for(0.2)
        (profile,) = profiles.values()
        assert profile.memo is not None
        assert harness._memo_keys

    def test_memo_disabled_by_config(self):
        harness = Harness(
            get_workload("blackscholes"),
            config=RSkipConfig(memoization=False),
            scale=0.3,
            timing=False,
        )
        (profile,) = harness.profiles_for(0.2).values()
        assert profile.memo is None


class TestPerRunStats:
    def test_prepared_programs_are_cached(self):
        harness = Harness(get_workload("sgemm"), scale=0.3, timing=False)
        assert harness.prepare_scheme("AR100") is harness.prepare_scheme("AR100")
        assert (
            harness.prepare_scheme("AR100", fresh=True)
            is not harness.prepare_scheme("AR100")
        )

    def test_reused_program_reports_per_run_delta(self):
        """Running the same input twice on one prepared program reports the
        same per-run stats — not a cumulative skip rate."""
        harness = Harness(get_workload("sgemm"), scale=0.3, timing=False)
        inp = harness.workload.test_inputs(1, scale=0.3)[0]
        r1 = harness.run_scheme("AR100", inp)
        r2 = harness.run_scheme("AR100", inp)
        assert r1.stats == r2.stats
        assert r1.skip_rate == pytest.approx(r2.skip_rate)
        assert r2.stats.elements == r1.stats.elements  # not doubled


class TestMisc:
    def test_default_ars(self):
        assert PAPER_ACCEPTABLE_RANGES == (0.2, 0.5, 0.8, 1.0)

    def test_timing_toggle(self):
        harness = Harness(get_workload("sgemm"), scale=0.3, timing=False)
        inp = harness.workload.test_inputs(1, scale=0.3)[0]
        rec = harness.run_scheme("UNSAFE", inp)
        assert rec.cycles == 0 and rec.ipc == 0.0
