"""The three workloads of the campaign benchmark.

Each workload runs one public campaign entry point of ``repro`` inside
this process, on one thread, with no pool and no daemon:

* ``campaign-ref``   -- ``run_campaign_parallel`` on sgemm under AR50
  with the default backend (faulted trials on the reference
  interpreter, one RSkip runtime reset per trial, a checkpoint rewrite
  per chunk);
* ``campaign-batch`` -- the same engine after
  ``set_default_backend("batch")``, on conv1d under AR50 (one
  ``BatchExecutor`` run and one ``prepare()`` per lane per chunk);
* ``recampaign``     -- ``run_campaign_stratified`` with ``reuse=True``
  on kde after a one-instruction edit, over a fresh copy of a populated
  ``SectionStore`` (the ``repro campaign --incremental`` loop).

A workload object has two parts.  ``setup()`` does the once-per-campaign work a
user pays before the first op.  ``window(ops, clock)`` runs the timed
ops; the clock records each op's duration and tells the tracer when the
window opens and closes.  Every op's tallies are checked against the
committed reference digests (``reference.json``).
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: the repo's own benchmarks, whose one-instruction edit ``recampaign`` uses
BENCHMARKS = os.path.join(ROOT, "benchmarks")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: scratch space of one run (checkpoints, section stores), inside the
#: checkout and removed when the run ends
RUN_ROOT = os.path.join(ROOT, ".perfbench-run")


def require_source() -> None:
    """Fail loudly when the program under test is not beside the
    benchmark (a bare copy of the benchmark directory cannot run)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {SRC}/repro")
    for path in (SRC, BENCHMARKS):
        if path not in sys.path:
            sys.path.insert(0, path)


require_source()

# every module a workload touches is imported here, so set-up timings
# never include a first lazy import (numpy comes in with the batch engine)
from repro.eval.campaign_engine import DEFAULT_CHUNK, run_campaign_parallel  # noqa: E402
from repro.eval.harness import Harness  # noqa: E402
from repro.eval.incremental import SectionStore, run_campaign_stratified  # noqa: E402
from repro.pipeline.cache import reset_cache  # noqa: E402
from repro.pipeline.registry import canonical_scheme  # noqa: E402
from repro.runtime.backend import set_default_backend  # noqa: E402
from repro.runtime.batch import BatchExecutor  # noqa: E402,F401
from repro.runtime.compiler import clear_compile_cache  # noqa: E402
from repro.workloads import get_workload  # noqa: E402
from repro.workloads.base import Workload  # noqa: E402
# the step-count-preserving edit of ``benchmarks/bench_incremental.py``
from bench_incremental import EditedWorkload  # noqa: E402

#: problem size of every workload (the CLI's fault-campaign scale is 0.45)
SCALE = 0.35
#: RSkip scheme of the two campaign workloads
SCHEME = canonical_scheme("AR50")
ACCEPTABLE_RANGE = 0.5
#: trials per engine chunk (the engine's default chunk size)
CHUNK = DEFAULT_CHUNK
#: trials of one stratified kde campaign (populate and re-campaign)
RECAMPAIGN_TRIALS = 150
#: the step-count-preserving edit re-campaigned by ``recampaign``
EDIT_TARGET = "loop:grid.head.5"
#: ``--seed n`` runs workload W at campaign seed ``CAMPAIGN_SEEDS[W][n % 8]``,
#: which fixes its input and fault plans.  The lists keep seeds at which
#: every op has an exact reference: they skip sgemm seed 8 (a faulted
#: trial raises out of the RSkip runtime and aborts the campaign) and the
#: kde seeds whose warm re-campaign differs from the from-scratch one
#: (3, 6, 7, 9, 11, 12, 24: one trial flips between CORRECT and SDC
#: through cross-section data flow, the section store's documented
#: approximation).  Two lists also hold per-op work steady across
#: seeds, so that ten seeds measure the program rather than the seeds:
#: ``campaign-batch`` keeps inputs whose fault region is 23796-23976
#: steps (the conv1d input shifts RSkip's skips, and the region ranges
#: 20.9k-26.7k over seeds 0-59), and ``recampaign`` skips seeds with a
#: hang among the five re-injected trials (5, 14, 15, 19, 25), which
#: doubles the cost of every op of the run.
CAMPAIGN_SEEDS: Dict[str, tuple] = {
    "campaign-ref": (0, 1, 2, 4, 5, 10, 13, 14),
    "campaign-batch": (0, 2, 8, 9, 25, 41, 43, 55),
    "recampaign": (0, 1, 4, 8, 13, 17, 20, 22),
}
#: ``--seed`` kept out of tuning; a claimed gain must also hold on it
HELD_OUT_SEED = 7
#: engine chunks per campaign-workload reference (warm-up chunk included)
REFERENCE_CHUNKS = 160
#: name -> (repro workload, default backend, timed ops per requested
#: second, set-ups per run).  ``setup_s`` is the median of the set-ups; a
#: campaign set-up takes ~0.15 s, a re-campaign set-up ~1.5 s.
WORKLOADS: Dict[str, tuple] = {
    "campaign-ref": ("sgemm", None, 8, 9),
    "campaign-batch": ("conv1d", "batch", 8, 9),
    "recampaign": ("kde", None, 16, 3),
}


def campaign_seed(name: str, seed: int) -> int:
    seeds = CAMPAIGN_SEEDS[name]
    return seeds[seed % len(seeds)]


def ops_for(name: str, seconds: float) -> int:
    """Timed ops of one run: a fixed count per requested second, so a run
    at a given ``--seconds`` always does the same work (counts repeat)."""
    ops = max(1, int(round(seconds * WORKLOADS[name][2])))
    if name != "recampaign":
        ops = min(ops, REFERENCE_CHUNKS - 1)
    return ops


def digest(tallies: dict) -> str:
    """Short stable digest of one serialized ``CampaignResult``."""
    text = json.dumps(tallies, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def reference_params() -> dict:
    """Everything the committed reference digests depend on."""
    return {
        "scale": SCALE, "scheme": SCHEME, "chunk": CHUNK,
        "recampaign_trials": RECAMPAIGN_TRIALS, "edit": EDIT_TARGET,
        "campaign_seeds": {k: list(v) for k, v in CAMPAIGN_SEEDS.items()},
        "reference_chunks": REFERENCE_CHUNKS,
        "workloads": {k: v[0] for k, v in WORKLOADS.items()},
    }


def load_reference(name: str, seed: int) -> dict:
    """The committed reference of *name* at campaign seed *seed*."""
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("params") != reference_params():
        raise SystemExit(
            "perfbench: reference.json was generated with other parameters; "
            "regenerate it with `python3 perfbench/reference.py`")
    return data[name][str(seed)]


def reset_program_caches() -> None:
    """Cold in-process caches, so every set-up pays the same work."""
    reset_cache()
    clear_compile_cache()


#: time the host probe takes on the reference host; an op's or set-up's
#: wall time is reported scaled by PROBE_REF_S / (the mean probe time
#: around it), i.e. as it would read at the reference host's speed
PROBE_REF_S = 0.0018


class Probe:
    """Fixed pure-Python work that reads the host's current speed.

    On a shared VM a vCPU can switch between speed states for 5-20 s at
    a time (NOTES.md has measurements).  The probe is an integer loop
    over a handful of objects: in three windows of 1400-2400
    ``recampaign`` ops, log op time followed log probe time with slope
    0.97-1.10.  It runs no ``repro`` code, and its working set is too
    small for the data an op leaves in the CPU caches to move it
    (``probe_check.py`` measures this).
    """

    def __call__(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(30000):
            total += i * i
        return time.perf_counter() - t0


class Clock:
    """Times the ops of one window.

    ``start`` runs a full collection and opens the window (the hook tells
    the tracer); ``begin``/``end`` bracket one op; ``stop`` closes the
    window.  ``end`` runs the probe, untimed, right after each op, and an
    op is scaled by the mean of the probes on either side of it, so an
    op that straddles a change of host speed is scaled by both states.
    """

    def __init__(self, probe: Probe,
                 hook: Optional[Callable[[Optional[str]], None]] = None):
        self.ops: List[float] = []
        self.probes: List[float] = []
        self._probe = probe
        self._hook = hook
        self._t0 = 0.0

    def start(self) -> None:
        gc.collect()
        if self._hook is not None:
            self._hook("window")

    def begin(self) -> None:
        if len(self.probes) == len(self.ops):  # no probe since the last op
            self.probes.append(self._probe())
        self._t0 = time.perf_counter()

    def end(self) -> None:
        self.ops.append(time.perf_counter() - self._t0)
        self.probes.append(self._probe())

    def stop(self) -> None:
        if self._hook is not None:
            self._hook(None)

    def scaled(self) -> List[float]:
        """Op times at the reference host's speed."""
        return [op * 2.0 * PROBE_REF_S / (before + after)
                for op, before, after
                in zip(self.ops, self.probes, self.probes[1:])]


class Window:
    """What a window delivered: per-op verdicts plus workload facts."""

    def __init__(self, ops: int):
        self.attempted = ops
        self.digests: List[Optional[str]] = []
        self.failed = 0
        self.correct = True
        self.trials_per_op = 0
        self.region_steps = 0
        self.reuse_ratio = 0.0
        self.error: Optional[str] = None

    @property
    def delivered_trials(self) -> int:
        return (self.attempted - self.failed) * self.trials_per_op


def _fresh(run_dir: str, stem: str) -> str:
    """A new path under the run directory."""
    index = 0
    while os.path.exists(os.path.join(run_dir, f"{stem}{index}")):
        index += 1
    return os.path.join(run_dir, f"{stem}{index}")


class CampaignBench:
    """``campaign-ref`` / ``campaign-batch``: one op is one engine chunk."""

    def __init__(self, name: str, seed: int, run_dir: str):
        wname, self.backend = WORKLOADS[name][:2]
        self.name = name
        self.workload = get_workload(wname)
        self.seed = campaign_seed(name, seed)
        self.run_dir = run_dir
        self.reference = load_reference(name, self.seed)
        self.profiles = None

    def setup(self) -> None:
        set_default_backend(self.backend)
        # as `repro campaign` does: profiles trained through Harness
        harness = Harness(self.workload, scale=SCALE, timing=False)
        self.profiles = harness.profiles_for(ACCEPTABLE_RANGE)
        # the first chunk of a campaign pays prepare + golden + counting
        run_campaign_parallel(
            self.workload, SCHEME, 1, seed=self.seed, scale=SCALE,
            profiles=self.profiles, jobs=1,
            checkpoint=_fresh(self.run_dir, "setup-checkpoint"))

    def window(self, ops: int, clock: Clock) -> Window:
        win = Window(ops)
        win.trials_per_op = CHUNK
        total = (ops + 1) * CHUNK
        checkpoint = _fresh(self.run_dir, "checkpoint")

        def progress(done: int, _total: int, _elapsed: float) -> None:
            # chunk 0 carries the campaign's once-only work: untimed
            if done == CHUNK:
                clock.start()
            elif done > CHUNK:
                clock.end()
            if done == total:
                clock.stop()
            elif done >= CHUNK:
                clock.begin()

        try:
            result = run_campaign_parallel(
                self.workload, SCHEME, total, seed=self.seed, scale=SCALE,
                profiles=self.profiles, jobs=1, checkpoint=checkpoint,
                progress=progress)
            win.region_steps = result.region_steps
        except Exception:  # an op that raises is a failed op
            win.error = traceback.format_exc()
            clock.stop()
        chunks = {}
        if os.path.exists(checkpoint):
            with open(checkpoint, "r", encoding="utf-8") as handle:
                chunks = json.load(handle)["chunks"]
        expected = self.reference["chunks"]
        for index in range(ops + 1):
            key = f"{self.workload.name}|{SCHEME}|{index * CHUNK}|{CHUNK}"
            got = digest(chunks[key]) if key in chunks else None
            ok = got == expected[index]
            if index == 0:
                win.correct = ok  # the warm-up chunk is checked, not counted
                continue
            win.digests.append(got)
            win.failed += not ok
        win.correct = win.correct and win.failed == 0 and win.error is None
        return win


class RecampaignBench:
    """``recampaign``: one op is one warm incremental re-campaign."""

    name = "recampaign"

    def __init__(self, name: str, seed: int, run_dir: str):
        self.base = get_workload(WORKLOADS[name][0])
        self.edited = EditedWorkload(self.base, EDIT_TARGET)
        self.seed = campaign_seed(name, seed)
        self.run_dir = run_dir
        self.reference = load_reference(name, self.seed)
        self.populated = ""

    def _campaign(self, workload: Workload, store_dir: str):
        return run_campaign_stratified(
            workload, "UNSAFE", RECAMPAIGN_TRIALS, seed=self.seed,
            scale=SCALE, store=SectionStore(directory=store_dir), reuse=True)

    def _store_copy(self) -> str:
        directory = _fresh(self.run_dir, "store")
        shutil.copytree(self.populated, directory)
        return directory

    def setup(self) -> None:
        set_default_backend(None)
        # write side: the campaign the developer ran before the edit
        self.populated = _fresh(self.run_dir, "populated")
        self._campaign(self.base, self.populated)
        # the first re-campaign fills the compile and artifact caches
        directory = self._store_copy()
        self._campaign(self.edited, directory)
        shutil.rmtree(directory)

    def window(self, ops: int, clock: Clock) -> Window:
        win = Window(ops)
        win.trials_per_op = RECAMPAIGN_TRIALS
        clock.start()
        for _ in range(ops):
            directory = self._store_copy()  # untimed: a fresh store on disk
            clock.begin()
            try:
                outcome = self._campaign(self.edited, directory)
            except Exception:  # an op that raises is a failed op
                outcome = None
                win.error = traceback.format_exc()
            clock.end()
            shutil.rmtree(directory)
            got = None
            if outcome is not None:
                got = digest(outcome.result.to_dict())
                win.region_steps = outcome.result.region_steps
                win.reuse_ratio = outcome.reused_trials / RECAMPAIGN_TRIALS
                if outcome.reused_trials != self.reference["reused_trials"]:
                    got = None  # reuse broke: the op did not do its job
            win.digests.append(got)
            win.failed += got != self.reference["digest"]
        clock.stop()
        win.correct = win.failed == 0 and win.error is None
        return win


def make_bench(name: str, seed: int, run_dir: str):
    if name not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    cls = RecampaignBench if name == "recampaign" else CampaignBench
    return cls(name, seed, run_dir)

