"""Tier-1 smoke: a fixed-seed difftest run must be clean and independent
of the worker count, and the CLI wiring must hold together."""
import pytest

from repro.cli import main
from repro.difftest import render_report, run_difftest

pytestmark = pytest.mark.difftest

SMOKE_SEED = 0
SMOKE_N = 15


@pytest.fixture(scope="module")
def serial_report():
    """The serial fixed-seed report over every oracle, computed once for
    the tests that read it."""
    return run_difftest(seed=SMOKE_SEED, n=SMOKE_N, oracle="all", jobs=1)


def test_fixed_seed_smoke_is_clean(serial_report):
    report = serial_report
    assert report.violations == [], render_report(report)
    assert len(report.records) == SMOKE_N
    assert [r.index for r in report.records] == list(range(SMOKE_N))


def test_report_is_byte_identical_across_jobs(serial_report):
    sharded = run_difftest(seed=SMOKE_SEED, n=SMOKE_N, jobs=2, chunk=4)
    assert render_report(serial_report) == render_report(sharded)


def test_single_oracle_selection():
    report = run_difftest(seed=SMOKE_SEED, n=6, oracle="o2")
    assert report.violations == []
    assert all(r.o3_landed == 0 for r in report.records)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown oracle"):
        run_difftest(seed=0, n=5, oracle="o9")
    with pytest.raises(ValueError, match="n must be positive"):
        run_difftest(seed=0, n=0)


def test_cli_difftest_smoke(capsys):
    code = main(["difftest", "--seed", "0", "--n", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "difftest: seed=0 n=6 oracle=all" in out
    assert "violations: 0" in out
