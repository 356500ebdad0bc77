"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload {campaign-ref,campaign-batch,recampaign}
                             --seed N --seconds S --trace {0,1}

``--trace 0`` measures the workload in this process with no wrappers
installed and prints the end-to-end metrics.  ``--trace 1`` runs three
fresh child processes at the same seed -- one untraced, two traced --
prints the per-layer metrics of the first traced run with the tracing
overhead, and exits non-zero if the two traced runs disagree on any
count.  Either way the last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it stamps the machine and the run parameters.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402  (exits non-zero when the program is absent)
from tracer import LAYER_METRICS, ROOT_LAYER, SETUP_METRICS, Tracer  # noqa: E402

#: (name, unit, better, bound) of every end-to-end metric
END_TO_END = (
    ("trials_per_s", "1/s", "higher", 0.2),
    ("op_p50_ms", "ms", "lower", 0.2),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

#: (name, unit, better) of the tracing summary the ``--trace 1`` parent
#: adds, with the untraced run's unscaled wall figures and probe median
TRACE_METRICS = (
    ("trace.ops", "count", "higher"),
    ("trace.op_ms", "ms", "lower"),
    ("trace.traced_trials_per_s", "1/s", "higher"),
    ("trace.untraced_trials_per_s", "1/s", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.untraced_wall_trials_per_s", "1/s", "higher"),
    ("trace.untraced_wall_op_p50_ms", "ms", "lower"),
    ("trace.untraced_wall_setup_s", "s", "lower"),
    ("trace.untraced_probe_ms", "ms", "lower"),
)


def per_layer_catalogue():
    """(name, unit, better) of every metric ``--trace 1`` prints."""
    units = {name: (unit, better) for name, unit, better in LAYER_METRICS}
    units["other_ms"] = ("ms", "lower")
    rows = list(LAYER_METRICS)
    rows += [("setup." + name, *units[name]) for name in SETUP_METRICS]
    rows += list(TRACE_METRICS)
    return rows


COUNT_UNITS = ("count", "bytes")


# -- stamp --------------------------------------------------------------------
def git_commit() -> str:
    """HEAD of the checkout's git repository; ``unknown`` when the
    checkout is not one.  Git neither searches above the checkout nor
    reads system or user configuration."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(bench.ROOT),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.ROOT,
                              env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """Digest of the program's Python sources: identifies the code even
    where the checkout carries no git metadata."""
    sha = hashlib.sha256()
    base = os.path.join(bench.SRC, "repro")
    for directory, dirs, files in os.walk(base):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                sha.update(os.path.relpath(path, base).encode("utf-8"))
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()[:16]


def stamp(name: str, seed: int, ops: int, setups: int, win) -> dict:
    return {
        "workload": name, "seed": seed,
        "campaign_seed": bench.campaign_seed(name, seed),
        "ops": ops, "setups": setups,
        "trials_per_op": win.trials_per_op,
        "region_steps": win.region_steps,
        "scale": bench.SCALE,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_digest": source_digest(),
    }


# -- one measured run -----------------------------------------------------------
def _rate(trials: int, op_ms) -> float:
    total = sum(op_ms)
    return trials * 1000.0 / total if total else 0.0


def _deciles(values):
    if len(values) < 2:
        return [values[0] if values else 0.0] * 9
    return statistics.quantiles(values, n=10, method="inclusive")


#: environment variables the program reads that a run pins
_ENV = ("REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_BACKEND")


def measure(name: str, seed: int, ops: int, setups: int = 0,
            traced: bool = False) -> dict:
    """Set the workload up *setups* times (default: the workload's own
    count), then run *ops* timed ops; returns the raw report (end-to-end
    metrics, per-op digests and, when *traced*, the per-layer metrics)."""
    setups = setups or bench.WORKLOADS[name][3]
    os.makedirs(bench.RUN_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=bench.RUN_ROOT)
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = run_dir
    # the in-process artifact cache only: never a cache directory shared
    # across runs, never an inherited backend
    saved_env = {k: os.environ.get(k) for k in _ENV}
    os.environ["REPRO_CACHE"] = "mem"
    os.environ["REPRO_CACHE_DIR"] = os.path.join(run_dir, "cache")
    os.environ.pop("REPRO_BACKEND", None)
    tracer = None
    try:
        workload = bench.make_bench(name, seed, run_dir)
        if traced:
            classes = {type(bench.get_workload(bench.WORKLOADS[name][0]))}
            if name == "recampaign":
                classes.add(bench.EditedWorkload)
            tracer = Tracer().install(sorted(classes, key=lambda c: c.__name__))
        probe = bench.Probe()
        setup_times, setup_probes = [], []
        for index in range(setups):
            bench.reset_program_caches()
            gc.collect()
            before = probe()
            if tracer is not None:
                tracer.enter(f"setup{index}")
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
            # a set-up spans up to seconds: read the host before and after
            setup_probes.append((before + probe()) / 2.0)
            if tracer is not None:
                tracer.close_ops("other_ms", setup_times[-1])
                tracer.enter(None)

        def hook(scope):
            if scope is None:
                tracer.close_ops(ROOT_LAYER[name], sum(clock.ops))
            tracer.enter(scope)

        clock = bench.Clock(probe, hook if tracer is not None else None)
        win = workload.window(ops, clock)
    finally:
        if tracer is not None:
            tracer.remove()
        bench.set_default_backend(None)
        tempfile.tempdir = saved_tempdir
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(bench.RUN_ROOT)  # only if no other run is using it
        except OSError:
            pass

    scaled_ms = [t * 1000.0 for t in clock.scaled()]
    wall_ms = [t * 1000.0 for t in clock.ops]
    deciles = _deciles(scaled_ms)
    setup_scaled = [t * bench.PROBE_REF_S / p
                    for t, p in zip(setup_times, setup_probes)]
    report = {
        "stamp": stamp(name, seed, ops, setups, win),
        "correct": win.correct,
        "attempted": win.attempted,
        "failed": win.failed,
        "error": win.error,
        "digests": win.digests,
        "e2e": {
            "trials_per_s": _rate(win.delivered_trials, scaled_ms),
            "op_p50_ms": deciles[4],
            "op_p90_ms": deciles[8],
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "op_ms_total": sum(wall_ms),
    }
    # the unscaled wall-clock figures ride along in the stamp
    report["stamp"].update({
        "wall_trials_per_s": _rate(win.delivered_trials, wall_ms),
        "wall_op_p50_ms": _deciles(wall_ms)[4],
        "wall_setup_s": statistics.median(setup_times),
        "probe_ms": statistics.median(clock.probes or [0.0]) * 1000.0,
    })
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, win, setups)
    return report


def layer_metrics(tracer: Tracer, win, setups: int) -> dict:
    window = tracer.scopes.get("window", {})
    layers = {name: float(window.get(name, 0.0)) for name, _, _ in LAYER_METRICS}
    executed = layers["trials.executed"]
    layers["trials.hang_share"] = layers["trials.hang"] / executed if executed else 0.0
    layers["eval.incremental.reuse_ratio"] = win.reuse_ratio
    for name in SETUP_METRICS:
        layers["setup." + name] = statistics.median(
            float(tracer.scopes[f"setup{index}"].get(name, 0.0))
            for index in range(setups))
    return layers


# -- output ---------------------------------------------------------------------
def _metric(value: float, unit: str) -> dict:
    if unit in COUNT_UNITS:
        value = int(round(value))
    return {"value": value, "unit": unit}


def emit(stamp_: dict, correct: bool, attempted: int, failed: int,
         metrics: dict) -> None:
    print(json.dumps({"stamp": stamp_}, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}), flush=True)


def _child(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", "0", "--child", mode]
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    proc = subprocess.run(
        cmd, cwd=bench.ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {mode} child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def count_metrics(layers: dict) -> dict:
    units = {name: unit for name, unit, _ in per_layer_catalogue()}
    return {k: v for k, v in layers.items() if units.get(k) in COUNT_UNITS}


def traced_main(args) -> int:
    """Untraced run, two traced runs, determinism check, per-layer output."""
    deadline = time.monotonic() + 170.0
    plain = _child(args, "plain", deadline)
    first = _child(args, "traced", deadline)
    second = _child(args, "traced", deadline)
    a, b = count_metrics(first["layers"]), count_metrics(second["layers"])
    drift = {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}
    if drift:
        sys.stderr.write(f"perfbench: traced runs at seed {args.seed} "
                         f"disagree on counts: {json.dumps(drift)}\n")
        return 3
    if first["digests"] != plain["digests"]:
        sys.stderr.write("perfbench: traced and untraced tallies differ\n")
        return 3
    layers = dict(first["layers"])
    traced_tps = first["e2e"]["trials_per_s"]
    plain_tps = plain["e2e"]["trials_per_s"]
    layers.update({
        "trace.ops": first["attempted"],
        "trace.op_ms": first["op_ms_total"],
        "trace.traced_trials_per_s": traced_tps,
        "trace.untraced_trials_per_s": plain_tps,
        "trace.overhead_share": plain_tps / traced_tps - 1.0 if traced_tps else 0.0,
    })
    # the untraced run's unscaled figures, next to the scaled ones
    layers.update({"trace.untraced_" + key: plain["stamp"][key] for key in (
        "wall_trials_per_s", "wall_op_p50_ms", "wall_setup_s", "probe_ms")})
    runs = (plain, first, second)
    metrics = {name: _metric(layers[name], unit)
               for name, unit, _ in per_layer_catalogue()}
    emit(first["stamp"], all(r["correct"] for r in runs),
         sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs),
         metrics)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="campaign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("plain", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace:
        return traced_main(args)
    ops = bench.ops_for(args.workload, args.seconds)
    report = measure(args.workload, args.seed, ops,
                     traced=args.child == "traced")
    if args.child:
        print(json.dumps(report), flush=True)
        return 0
    if report["error"]:
        sys.stderr.write(f"perfbench: {report['error']}\n")
    metrics = {name: _metric(report["e2e"][name], unit)
               for name, unit, _, _ in END_TO_END}
    emit(report["stamp"], report["correct"], report["attempted"],
         report["failed"], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
