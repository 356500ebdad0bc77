import re

import pytest

from repro.cli import build_parser, main
from repro.eval import cost_ratio, section73
from repro.workloads import ALL_WORKLOADS, get_workload


class TestCostRatio:
    def test_ordering_holds_everywhere(self):
        for workload in ALL_WORKLOADS:
            ratio = cost_ratio(workload)
            one, memo, recompute = ratio.normalized()
            assert one == 1.0
            assert memo > one
            assert recompute > memo

    def test_blackscholes_uses_real_arity(self):
        ratio = cost_ratio(get_workload("blackscholes"))
        other = cost_ratio(get_workload("sgemm"))
        # six quantized inputs vs one: the memo level must cost more
        assert ratio.memoization > other.memoization

    def test_str(self):
        text = str(cost_ratio(get_workload("sgemm")))
        assert text.startswith("sgemm: 1.00 :")

    def test_rejects_targetless_module(self):
        import random

        from repro.ir import F64, Function, IRBuilder, Module
        from repro.workloads import Workload, WorkloadInput

        class Trivial(Workload):
            name = "trivial"

            def build(self):
                module = Module("trivial")
                func = Function("main", [], F64)
                module.add_function(func)
                IRBuilder(func).ret(0.0)
                return module

            def make_input(self, rng, scale=1.0):
                return WorkloadInput({}, [], ("x", 0), ("x", 0))

        with pytest.raises(ValueError, match="no prediction target"):
            cost_ratio(Trivial())


class TestSection73:
    def test_small_run_shape(self):
        workloads = [get_workload("sgemm")]
        rows = section73(
            workloads,
            schemes=("SWIFT-R", "AR100"),
            trials=10,
            perf_scale=0.3,
            sfi_scale=0.3,
        )
        by_scheme = {r.scheme: r for r in rows}
        assert by_scheme["AR100"].slowdown < by_scheme["SWIFT-R"].slowdown
        assert 0.0 <= by_scheme["AR100"].protection_rate <= 1.0


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        for cmd in ("table1", "figure2", "figure7", "figure8a", "figure8b",
                    "figure9", "tradeoff", "costratio", "all"):
            args = parser.parse_args(["--scale", "0.4", cmd])
            assert callable(args.fn)

    @pytest.mark.parametrize("argv", [
        ["skipmap", "--site-cap", "0"],
        ["skipmap", "--burst-len", "0"],
        ["campaign", "sgemm", "--trials", "-3"],
        ["difftest", "--n", "0"],
        ["--scale", "0", "campaign", "sgemm"],
        ["--scale", "-1", "campaign", "sgemm"],
        ["--scale", "nan", "table1"],
        ["figure9", "--trials", "two"],
        ["--jobs", "-3", "table1"],
        ["difftest", "--jobs", "0"],
        ["difftest", "--fault-samples", "-2"],
        ["serve", "--workers", "0"],
        ["serve", "--job-workers", "0"],
        ["serve", "--max-inflight", "0"],
        ["serve", "--per-client", "-1"],
    ])
    def test_rejects_non_positive_sizes(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.rstrip().splitlines()
        assert err[0].startswith("usage: repro")
        assert re.match(r"repro( \w+)?: error: argument --", err[-1])

    @pytest.mark.parametrize("argv", [
        ["run", "nope"],
        ["campaign", "nope", "--trials", "2"],
        ["sweep", "--workload", "nope"],
        ["scaling", "--workload", "nope"],
    ])
    def test_rejects_unknown_workload(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.rstrip().splitlines()
        assert err[0].startswith("usage: repro")
        assert re.match(r"repro \w+: error: argument (--)?workload: "
                        r"unknown workload 'nope'; available: ", err[-1])

    def test_serve_port_zero_stays_valid(self):
        assert build_parser().parse_args(["serve", "--port", "0"]).port == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_end_to_end(self, capsys):
        assert main(["--scale", "0.3", "table1"]) == 0
        out = capsys.readouterr().out
        assert "blackscholes" in out
        assert "a function call" in out

    def test_costratio_end_to_end(self, capsys):
        assert main(["costratio"]) == 0
        out = capsys.readouterr().out
        assert "sgemm: 1.00" in out


class TestReportCommand:
    def test_report_formats_markdown(self, tmp_path, monkeypatch):
        from repro import cli

        def fake_all(args):
            print("== Table 1: selected benchmarks ==")
            print("-- sub figure --")
            print("row one")
            print("   (1.2s)")

        monkeypatch.setattr(cli, "cmd_all", fake_all)
        out = str(tmp_path / "results.md")
        assert cli.main(["report", "--output", out]) == 0
        text = open(out).read()
        assert "## Table 1: selected benchmarks" in text
        assert "### sub figure" in text
        assert "    row one" in text

    @pytest.mark.parametrize("trace, needle", [
        (None, "No such file"),  # never written
        ('{"seq": 1, "run": "r", "kind": "x"}\n{"seq": 2, "ru\n', ":2: "),
    ], ids=["missing", "malformed"])
    def test_unreadable_trace_exits_2(self, trace, needle, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        if trace is not None:
            path.write_text(trace)
        with pytest.raises(SystemExit) as exc:
            main(["report", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("report: ") and needle in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("manifest, needle", [
        ('{"version": %d, "run": "r", "comm', "Unterminated string"),
        ('{"version": %d, "run": "r"}', "lacks key 'command'"),
    ], ids=["truncated", "missing-key"])
    def test_corrupt_manifest_exits_2(self, manifest, needle, tmp_path,
                                      capsys):
        """A readable trace next to a corrupt manifest: the one error
        line names the manifest file."""
        from repro.obs.manifest import MANIFEST_VERSION, manifest_path_for

        path = tmp_path / "t.jsonl"
        path.write_text('{"seq": 1, "run": "r", "kind": "x"}\n')
        manifest_path = manifest_path_for(str(path))
        with open(manifest_path, "w") as handle:
            handle.write(manifest % MANIFEST_VERSION)
        with pytest.raises(SystemExit) as exc:
            main(["report", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"report: {manifest_path}: ") and needle in err
        assert err.count("\n") == 1
