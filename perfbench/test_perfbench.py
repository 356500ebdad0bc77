"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run short windows (a few ops, one set-up), so they check
behaviour, not speed.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

RUN = os.path.join(bench.HERE, "run.py")
SPEC = os.path.join(bench.ROOT, "BENCHMARK.json")


def _classes(name):
    classes = [type(bench.get_workload(bench.WORKLOADS[name][0]))]
    if name == "recampaign":
        classes.append(bench.EditedWorkload)
    return classes


def _wrap_points(classes):
    """What every wrap point holds right now."""
    return {(id(owner), attr): vars(owner).get(attr)
            for owner, attr, *_ in tracer._targets(classes)}


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_wrappers_removed_after_traced_run(name):
    before = _wrap_points(_classes(name))
    report = run.measure(name, 0, ops=2, setups=1, traced=True)
    assert report["correct"], report["error"]
    layers = report["layers"]
    # the wrappers were live during the run ...
    assert layers["runtime.interpreter.runs"] + layers["runtime.batch.runs"] > 0
    # ... the window's self times account for its op time ...
    self_ms = sum(v for k, v in layers.items()
                  if k.endswith("_ms") and not k.startswith("setup."))
    assert self_ms == pytest.approx(report["op_ms_total"], rel=1e-6)
    # ... and every wrap point holds its original again
    assert _wrap_points(_classes(name)) == before


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_and_untraced_tallies_identical(name):
    plain = run.measure(name, 1, ops=2, setups=1)
    traced = run.measure(name, 1, ops=2, setups=1, traced=True)
    assert plain["correct"] and traced["correct"]
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digests"] == traced["digests"]
    assert None not in plain["digests"]


def test_printed_metric_names_match_benchmark_json():
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "recampaign", "--seed", "2",
             "--seconds", "0.5", "--trace", str(trace)],
            cwd=bench.ROOT, capture_output=True, text=True, check=True)
        result = _last_json(proc.stdout)
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]
        for metric in spec[key]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_catalogue_matches_benchmark_json():
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == run.per_layer_catalogue()


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copy(SPEC, tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recampaign",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_seed_maps_to_a_referenced_campaign_seed():
    with open(bench.REFERENCE_PATH, encoding="utf-8") as handle:
        data = json.load(handle)
    assert data["params"] == bench.reference_params()
    for name in bench.WORKLOADS:
        for seed in range(16):
            assert str(bench.campaign_seed(name, seed)) in data[name]
    assert bench.ops_for("campaign-ref", 60) == bench.REFERENCE_CHUNKS - 1
