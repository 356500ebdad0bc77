"""Campaign throughput: serial trial blocks vs the lane-vectorized batch.

Runs the same block of fault-injection trials three ways: the serial
reference path (`run_trial_block`, one interpreter execution per
trial), the serial default path (`run_trial_block(...,
backend="compiled")`, each trial handed to the compiled backend once
its fault has acted — what a default campaign runs) and the batch
engine (`run_trial_block_batch`, the whole block as lanes of one
lockstep execution).  It checks the three tallies are byte-identical
and records trials/second for each, with the batch engine's speedup
over both serial paths.  ``python benchmarks/bench_batch_lanes.py``
writes ``BENCH_batch_lanes.json`` at the repository root; the pytest
wrapper asserts the batch engine clears its 10x contract against the
reference path on at least two workloads.

The mix is deliberately honest: sgemm and conv1d are long-region
workloads where divergence windows stay sparse (the best case), SWIFT
adds intrinsic traffic, and kde/SWIFT-R is the known worst case — its
faulted lanes hang often, and a hanging lane burns the whole
HANG_FACTOR budget regardless of engine.

Scale knob: ``REPRO_BENCH_BATCH_TRIALS`` — trials per measured block
(default 200, one 256-lane slab).
"""
from __future__ import annotations

import json
import os
import time

from repro.eval.fault_campaign import (
    campaign_context,
    run_trial_block,
    run_trial_block_batch,
)
from repro.eval.schemes import prepare
from repro.pipeline.registry import canonical_scheme
from repro.workloads import get_workload

TRIALS = int(os.environ.get("REPRO_BENCH_BATCH_TRIALS", "200"))

#: The batch engine's contract against the reference path ...
REQUIRED_SPEEDUP = 10.0
#: ... on at least this many of the measured workloads.
REQUIRED_WORKLOADS = 2

#: (workload, scheme, input scale, trials multiplier)
CONFIGS = (
    ("sgemm", "UNSAFE", 0.45, 1.0),
    ("conv1d", "UNSAFE", 0.45, 1.0),
    ("blackscholes", "SWIFT", 0.45, 1.0),
    ("kde", "SWIFT-R", 0.45, 0.5),
    ("conv1d", "AR50", 0.45, 0.5),
)

SEED = 0


def _measure(block, repeats=2):
    """(best seconds, last result) of *block* over *repeats* runs."""
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = block()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return max(best, 1e-9), result


def measure_campaign_throughput(trials=TRIALS):
    """trials/sec per (workload, scheme) for the three paths, plus the
    batch engine's speedups over the serial ones."""
    results = {}
    for wname, scheme_name, scale, factor in CONFIGS:
        count = max(8, int(trials * factor))
        workload = get_workload(wname)
        scheme = canonical_scheme(scheme_name, None)
        inp = workload.test_inputs(1, seed=SEED + 17, scale=scale)[0]
        prepared = prepare(workload, scheme)
        ctx = campaign_context(prepared, workload, inp)

        serial_s, serial = _measure(lambda: run_trial_block(
            prepared, workload, inp, ctx, scheme, SEED, 0, count))
        default_s, default = _measure(lambda: run_trial_block(
            prepared, workload, inp, ctx, scheme, SEED, 0, count,
            backend="compiled"))
        batch_s, batch = _measure(lambda: run_trial_block_batch(
            prepared, workload, inp, ctx, scheme, SEED, 0, count))
        # throughput without equivalence is meaningless
        assert default.to_dict() == serial.to_dict(), \
            f"{wname}/{scheme}: default-path tallies diverged from serial"
        assert batch.to_dict() == serial.to_dict(), \
            f"{wname}/{scheme}: batch tallies diverged from serial"

        results[f"{wname}_{scheme_name.lower()}"] = {
            "trials": count,
            "region_steps": ctx.region_steps,
            "serial_trials_per_sec": round(count / serial_s, 2),
            "default_trials_per_sec": round(count / default_s, 2),
            "batch_trials_per_sec": round(count / batch_s, 2),
            "speedup": round(serial_s / batch_s, 1),
            "speedup_vs_default": round(default_s / batch_s, 1),
        }
    return results


def write_baseline(path="BENCH_batch_lanes.json"):
    results = measure_campaign_throughput()
    cleared = sum(
        1 for row in results.values() if row["speedup"] >= REQUIRED_SPEEDUP)
    payload = {
        "benchmark": "batch-lane campaign throughput",
        "unit": "fault-injection trials per second (identical tallies)",
        "trials_per_block": TRIALS,
        "required_speedup": REQUIRED_SPEEDUP,
        "required_workloads": REQUIRED_WORKLOADS,
        "workloads_clearing_required_speedup": cleared,
        "workloads": results,
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")
    return payload


def test_batch_engine_speedup():
    results = measure_campaign_throughput()
    print("\n== batch-lane campaign throughput ==")
    for name, row in results.items():
        print(f"  {name}: serial {row['serial_trials_per_sec']:.1f} "
              f"trials/s  default {row['default_trials_per_sec']:.1f} "
              f"trials/s  batch {row['batch_trials_per_sec']:.1f} trials/s  "
              f"({row['speedup']:.1f}x, {row['speedup_vs_default']:.1f}x "
              f"vs default)")
    cleared = sum(
        1 for row in results.values() if row["speedup"] >= REQUIRED_SPEEDUP)
    assert cleared >= REQUIRED_WORKLOADS, (
        f"only {cleared} workloads reached {REQUIRED_SPEEDUP}x"
    )


if __name__ == "__main__":
    payload = write_baseline()
    print(json.dumps(payload, indent=2))
