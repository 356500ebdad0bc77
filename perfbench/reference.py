"""Regenerate ``reference.json``: the tallies every benchmark op is
checked against.

    python3 perfbench/reference.py

The references come from paths independent of the engine under test:

* ``campaign-ref`` and ``campaign-batch`` -- ``run_trial_block`` on the
  reference interpreter, one engine-sized trial range at a time (the
  serial path, never the batch engine or the chunking engine);
* ``recampaign`` -- a from-scratch stratified campaign of the edited
  program, with no section store.  The script also runs the
  populate-then-reuse sequence once and refuses to write a reference
  the incremental path does not reproduce.

Each entry is keyed by campaign seed and holds a short digest of every
op's serialized ``CampaignResult`` plus readable totals.  Regenerating
takes about ten minutes on one core.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402
from repro.eval.fault_campaign import campaign_context, run_trial_block  # noqa: E402
from repro.eval.harness import Harness  # noqa: E402
from repro.eval.incremental import SectionStore, run_campaign_stratified  # noqa: E402
from repro.eval.schemes import prepare  # noqa: E402
from repro.runtime.backend import set_default_backend  # noqa: E402
from repro.workloads import get_workload  # noqa: E402


def _totals(result) -> dict:
    data = result.to_dict()
    return {"tallies": data["tallies"], "caught": data["caught"],
            "false_negatives": data["false_negatives"]}


def campaign_reference(name: str, seed: int) -> dict:
    """Per-chunk digests of the serial reference path."""
    set_default_backend(None)
    workload = get_workload(bench.WORKLOADS[name][0])
    profiles = Harness(workload, scale=bench.SCALE, timing=False).profiles_for(
        bench.ACCEPTABLE_RANGE)
    # the engine's own input rule: test input drawn at seed + 17
    inp = workload.test_inputs(1, seed=seed + 17, scale=bench.SCALE)[0]
    prepared = prepare(workload, bench.SCHEME, None, profiles)
    ctx = campaign_context(prepared, workload, inp)
    chunks, merged = [], None
    for index in range(bench.REFERENCE_CHUNKS):
        start = index * bench.CHUNK
        try:
            part = run_trial_block(
                prepared, workload, inp, ctx, bench.SCHEME, seed, start,
                bench.CHUNK)
        except Exception as exc:
            raise SystemExit(
                f"{name} seed {seed}: trials {start}..{start + bench.CHUNK - 1} "
                f"raised {exc!r}") from exc
        chunks.append(bench.digest(part.to_dict()))
        if merged is None:
            merged = part
        else:
            merged.merge(part)
    return {"region_steps": ctx.region_steps, "totals": _totals(merged),
            "chunks": chunks}


def recampaign_reference(seed: int) -> dict:
    """Digest of a from-scratch stratified campaign of the edited kde."""
    set_default_backend(None)
    base = get_workload(bench.WORKLOADS["recampaign"][0])
    edited = bench.EditedWorkload(base, bench.EDIT_TARGET)
    kwargs = dict(seed=seed, scale=bench.SCALE)
    scratch = run_campaign_stratified(
        edited, "UNSAFE", bench.RECAMPAIGN_TRIALS, **kwargs)
    os.makedirs(bench.RUN_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="reference-", dir=bench.RUN_ROOT)
    try:
        store = os.path.join(tmp, "store")
        run_campaign_stratified(
            base, "UNSAFE", bench.RECAMPAIGN_TRIALS,
            store=SectionStore(directory=store), reuse=True, **kwargs)
        warm = run_campaign_stratified(
            edited, "UNSAFE", bench.RECAMPAIGN_TRIALS,
            store=SectionStore(directory=store), reuse=True, **kwargs)
    finally:
        shutil.rmtree(tmp)
    if warm.result.to_dict() != scratch.result.to_dict():
        raise SystemExit(f"seed {seed}: incremental re-campaign "
                         f"differs from the from-scratch campaign")
    if not 0 < warm.reused_trials < bench.RECAMPAIGN_TRIALS:
        raise SystemExit(f"seed {seed}: the edit reused "
                         f"{warm.reused_trials} trials; expected a partial reuse")
    return {"region_steps": scratch.result.region_steps,
            "totals": _totals(scratch.result),
            "digest": bench.digest(scratch.result.to_dict()),
            "reused_trials": warm.reused_trials}


def main() -> None:
    data = {"params": bench.reference_params()}
    for name in sorted(bench.WORKLOADS):
        entries = {}
        for seed in bench.CAMPAIGN_SEEDS[name]:
            if name == "recampaign":
                entries[str(seed)] = recampaign_reference(seed)
            else:
                entries[str(seed)] = campaign_reference(name, seed)
            print(f"{name} seed {seed}: {entries[str(seed)]['totals']}",
                  flush=True)
        data[name] = entries
        # written per workload, so a long regeneration keeps its progress
        with open(bench.REFERENCE_PATH, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
