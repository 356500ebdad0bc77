"""Parallel, resumable fault-injection campaigns.

The SFI study (Figure 9) is the slowest experiment in the repo: every
(workload, scheme) pair runs hundreds of interpreted trials.  Trials are
statistically independent by construction — each one derives its own seed
via ``stable_seed(seed, workload, scheme, trial_index)`` and runs against
a freshly reset runtime — so the campaign decomposes into
``(workload, scheme, trial-chunk)`` work units that can execute anywhere
in any order and still produce byte-identical tallies.

This engine shards those units over a ``ProcessPoolExecutor``:

* each worker caches the prepared program and its one fault-free golden
  run per (workload, scheme) — with the golden prefix its reference
  trials fast-forward from — so a chunk only pays for its own trials;
* every finished chunk is checkpointed to a JSON file (written
  atomically; each chunk's entry is encoded once and the file rewritten
  from those texts, chunks in task order whatever order they finish
  in), and ``resume=True`` skips the chunks the file already holds — an
  interrupted campaign continues to the same final result;
* a ``progress(done_trials, total_trials, elapsed_seconds)`` callback
  reports completion for ETA display.

``jobs <= 1`` runs the same chunked schedule inline (no pool), which
keeps checkpoint/resume available without process overhead.  Every
default-seeded campaign runs here: ``run_campaign`` and ``figure9``
without workers or a checkpoint submit one chunk holding all trials.
"""
from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import RSkipConfig
from ..core.manager import LoopProfile
from ..obs.events import diverted, install_sink, remove_sink
from ..obs.manifest import RunManifest, run_id_for
from ..obs.sinks import JsonlSink, MemorySink, merge_traces
from ..pipeline.registry import canonical_scheme, get_scheme
from ..runtime.backend import default_backend
from ..runtime.faults import DEFAULT_KIND_WEIGHTS
from ..workloads.base import Workload, WorkloadInput
from .fault_campaign import (
    CampaignResult,
    campaign_context,
    run_trial_block,
    run_trial_block_batch,  # noqa: F401  (perfbench/tracer.py wraps this name)
)
from .schemes import prepare

#: Trials per work unit.  Small enough that campaigns load-balance and
#: checkpoint at a useful granularity, large enough that a unit amortizes
#: its worker's cached golden run.
DEFAULT_CHUNK = 25

#: Version 2 added the fault-kind mix to the checkpoint params key: a v1
#: checkpoint written under default SEU weights would otherwise resume
#: silently against an adversarial kind mix.  Version 3 added per-scheme
#: descriptor hashes (which cover the scheme's detection/recovery
#: protocol): a checkpoint written before a protocol definition changed
#: must not silently resume after it — the stored tallies were produced
#: under different detection/recovery semantics.
CHECKPOINT_VERSION = 3

ProgressFn = Callable[[int, int, float], None]


@dataclass(frozen=True)
class CampaignTask:
    """One (workload, scheme, trial-chunk) work unit."""

    workload: str
    scheme: str
    start: int
    count: int
    seed: int
    scale: float

    @property
    def key(self) -> str:
        return f"{self.workload}|{self.scheme}|{self.start}|{self.count}"


# -- worker side ------------------------------------------------------------
#: (workload, scheme, seed, scale, config) -> (workload, prepared, inp, ctx,
#: spans).  One entry per campaign a worker process has touched; the
#: prepared program is reused across that campaign's chunks (trials reset
#: it).  *spans* holds the golden run's spans until a traced chunk
#: reports them.
_WORKER_CACHE: Dict[Tuple, Tuple] = {}


def _cache_key(task: CampaignTask, config: Optional[RSkipConfig]) -> Tuple:
    return (task.workload, task.scheme, task.seed, task.scale, config)


def _worker_campaign(
    task: CampaignTask,
    workload: Workload,
    config: Optional[RSkipConfig],
    profiles: Optional[Dict[str, LoopProfile]],
    inp: Optional[WorkloadInput],
):
    key = _cache_key(task, config)
    entry = _WORKER_CACHE.get(key)
    if entry is None:
        if inp is None:
            inp = workload.test_inputs(1, seed=task.seed + 17, scale=task.scale)[0]
        prepared = prepare(workload, task.scheme, config, profiles)
        spans = MemorySink(capacity=0)
        with diverted(spans):
            ctx = campaign_context(prepared, workload, inp)
        entry = (workload, prepared, inp, ctx, spans.spans)
        _WORKER_CACHE[key] = entry
    return entry


def _run_chunk(
    task: CampaignTask,
    workload: Workload,
    config: Optional[RSkipConfig],
    profiles: Optional[Dict[str, LoopProfile]],
    inp: Optional[WorkloadInput],
    kind_weights: Tuple = DEFAULT_KIND_WEIGHTS,
    trace_path: Optional[str] = None,
    trace_run: str = "",
) -> Tuple[str, dict]:
    """Execute one work unit; returns (task key, serialized chunk result).

    With *trace_path* set, the chunk's trials run under a JSONL sink
    writing that shard file — owned exclusively by this call, so no two
    workers ever interleave writes into a shared fd.  The sink goes up
    *after* the cached golden run (which is per-worker warmup,
    not per-chunk work), keeping shard contents deterministic for any
    worker count; the first traced chunk after it reports its
    ``ref.capture`` span.  The chunk's wall-clock and module fingerprint
    ride back on the result dict for the parent's run manifest.
    """
    workload, prepared, inp, ctx, warmup = _worker_campaign(
        task, workload, config, profiles, inp
    )

    def _block():
        return run_trial_block(
            prepared, workload, inp, ctx, task.scheme, task.seed,
            task.start, task.count, kind_weights=kind_weights,
            backend=default_backend(),
        )
    if trace_path is None:
        return task.key, _block().to_dict()

    from ..runtime.compiler import module_fingerprint

    sink = JsonlSink(trace_path)
    install_sink(sink, run_id=trace_run)
    t0 = time.perf_counter()
    try:
        result = _block()
    finally:
        remove_sink()
        sink.close()
    data = result.to_dict()
    data["elapsed_ms"] = (time.perf_counter() - t0) * 1000.0
    data["fingerprint"] = module_fingerprint(prepared.module)
    # the golden run's, then the engines' own (e.g. the batch
    # lockstep/tail split)
    spans = warmup + sink.spans
    warmup.clear()
    if spans:
        data["spans"] = spans
    return task.key, data


# -- checkpointing ----------------------------------------------------------
class CheckpointBusyError(RuntimeError):
    """Another live campaign owns this checkpoint file."""


class CheckpointMismatchError(ValueError):
    """A checkpoint is not valid JSON, or was written by another
    checkpoint version or by a campaign with other parameters; resuming
    from it would mix tallies."""


#: checkpoint paths locked by *this* process (serve runs several campaign
#: jobs as threads of one process, so a pid-only file lock cannot tell two
#: of our own threads apart)
_HELD_LOCKS: set = set()
_HELD_LOCKS_GUARD = threading.Lock()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


class CheckpointLock:
    """Exclusive ownership of a checkpoint path across processes/threads.

    Two campaigns checkpointing to the same file would silently
    interleave chunk dicts written under (potentially) different
    parameters; instead the loser errors cleanly with
    :class:`CheckpointBusyError`.  Protocol: a sibling ``<path>.lock``
    file created with ``O_EXCL`` holding the owner pid.  A lock whose pid
    is dead — or is this very process without an in-process registration,
    i.e. a previous incarnation that was SIGKILLed — is stale and is
    stolen, which is what lets a restarted serve daemon resume the jobs
    its predecessor left behind.
    """

    def __init__(self, checkpoint_path: str):
        self.checkpoint = os.path.abspath(checkpoint_path)
        self.path = self.checkpoint + ".lock"
        self._held = False

    def acquire(self) -> "CheckpointLock":
        with _HELD_LOCKS_GUARD:
            if self.checkpoint in _HELD_LOCKS:
                raise CheckpointBusyError(
                    f"{self.checkpoint}: already locked by another campaign "
                    f"in this process"
                )
            _HELD_LOCKS.add(self.checkpoint)
        try:
            self._acquire_file()
        except BaseException:
            with _HELD_LOCKS_GUARD:
                _HELD_LOCKS.discard(self.checkpoint)
            raise
        self._held = True
        return self

    def _acquire_file(self) -> None:
        payload = json.dumps({"pid": os.getpid(), "at": time.time()})
        for _ in range(16):
            try:
                fd = os.open(self.path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                owner = self._owner_pid()
                if owner is not None and owner != os.getpid() and _pid_alive(owner):
                    raise CheckpointBusyError(
                        f"{self.checkpoint}: checkpoint is locked by live "
                        f"campaign pid {owner} ({self.path}); two campaigns "
                        f"must not share a checkpoint file"
                    )
                # stale (dead owner, our own crashed predecessor, or
                # unreadable junk): steal it and retry — a concurrent
                # stealer's unlink racing ours is harmless
                try:
                    os.unlink(self.path)
                except OSError:
                    pass
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            return
        raise CheckpointBusyError(
            f"{self.checkpoint}: could not acquire {self.path}"
        )

    def _owner_pid(self) -> Optional[int]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                return int(json.load(handle).get("pid"))
        except (OSError, ValueError, TypeError):
            return None

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            os.unlink(self.path)
        except OSError:
            pass
        with _HELD_LOCKS_GUARD:
            _HELD_LOCKS.discard(self.checkpoint)

    def __enter__(self) -> "CheckpointLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


def _params_key(trials: int, seed: int, scale: float,
                config: Optional[RSkipConfig],
                kind_weights: Tuple = DEFAULT_KIND_WEIGHTS,
                scheme_hashes: Optional[Dict[str, str]] = None) -> str:
    """The checkpoint compatibility key.  *scheme_hashes* maps each
    campaigned canonical scheme to its descriptor hash, which covers the
    scheme's :class:`~repro.pipeline.registry.Protocol` — so a resume
    across a protocol-definition change is rejected instead of merging
    tallies produced under different detection/recovery semantics."""
    return json.dumps(
        {"trials": trials, "seed": seed, "scale": scale, "config": repr(config),
         "kind_weights": [[str(k), float(w)] for k, w in kind_weights],
         "schemes": dict(sorted((scheme_hashes or {}).items()))},
        sort_keys=True,
    )


def _load_checkpoint(path: str, params_key: str) -> Dict[str, dict]:
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise CheckpointMismatchError(
                f"{path}: unreadable checkpoint ({exc}); delete it and re-run"
            ) from None
    if data.get("version") != CHECKPOINT_VERSION:
        raise CheckpointMismatchError(
            f"{path}: unsupported checkpoint version "
            f"{data.get('version')!r} (expected {CHECKPOINT_VERSION}; "
            f"older versions predate kind-weight/protocol keying — delete "
            f"the file and re-run)"
        )
    if data.get("params") != params_key:
        raise CheckpointMismatchError(
            f"{path}: checkpoint was written by a campaign with different "
            f"parameters; delete it or match "
            f"trials/seed/scale/config/kind_weights and the campaigned "
            f"schemes' descriptor (protocol) definitions"
        )
    return dict(data.get("chunks", {}))


def _chunk_text(key: str, data: dict) -> str:
    """One checkpoint chunk entry, ``"key": {...}``, as ``json.dump``
    writes it inside the ``chunks`` object."""
    return f"{json.dumps(key)}: {json.dumps(data)}"


def _save_checkpoint(path: str, params_key: str,
                     texts: Dict[str, Optional[str]]) -> None:
    """Write the checkpoint: the header and the chunk entries of *texts*
    (:func:`_chunk_text`, ``None`` for a chunk not finished yet) in
    their order.  Each entry is encoded once, when its chunk arrives;
    the file is byte-identical to ``json.dump`` of ``{"version",
    "params", "chunks"}``."""
    head = json.dumps({"version": CHECKPOINT_VERSION, "params": params_key})
    body = ", ".join(text for text in texts.values() if text is not None)
    # write-then-rename: an interrupt mid-save never corrupts the file
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".campaign-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(f'{head[:-1]}, "chunks": {{{body}}}}}')
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- the engine -------------------------------------------------------------
def map_chunks(
    fn: Callable,
    arg_tuples: Sequence[Tuple],
    jobs: int = 1,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> List:
    """Run ``fn(*args)`` for every tuple, inline or over a process pool.

    The deterministic backbone shared by the SFI engine and the difftest
    runner: work units are independent, ``on_result(index, result)`` fires
    as units finish (completion order under a pool — consumers must not
    depend on it), and the returned list is always in submission order, so
    downstream merges are byte-identical for any *jobs*.  With ``jobs > 1``
    *fn* must be a picklable module-level function.
    """
    results: List = [None] * len(arg_tuples)
    if jobs <= 1:
        for index, args in enumerate(arg_tuples):
            result = fn(*args)
            results[index] = result
            if on_result is not None:
                on_result(index, result)
        return results
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {
            pool.submit(fn, *args): index
            for index, args in enumerate(arg_tuples)
        }
        remaining = set(futures)
        while remaining:
            finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for future in finished:
                index = futures[future]
                result = future.result()
                results[index] = result
                if on_result is not None:
                    on_result(index, result)
    return results


def run_campaigns(
    groups: Sequence[Tuple[Workload, str, Optional[Dict[str, LoopProfile]]]],
    trials: int,
    seed: int = 0,
    scale: float = 0.45,
    config: Optional[RSkipConfig] = None,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
    chunk: int = DEFAULT_CHUNK,
    inp: Optional[WorkloadInput] = None,
    trace_out: Optional[str] = None,
    kind_weights: Tuple = DEFAULT_KIND_WEIGHTS,
) -> Dict[Tuple[str, str], CampaignResult]:
    """Run a batch of campaigns — *groups* is (workload, scheme, profiles) —
    sharded into trial chunks, optionally over a process pool.

    Returns ``{(workload.name, scheme): CampaignResult}`` with tallies
    identical to the serial run at the same seed, for any *jobs*/*chunk*.

    With *trace_out*, every work unit writes its observability events to
    its own shard file under ``<trace_out>.shards/`` and the parent
    merges them in task order into *trace_out* plus a run manifest —
    merged traces are byte-identical for any *jobs*/*chunk* (shard files
    are kept so a resumed campaign can still merge a complete trace).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    chunk = max(1, int(chunk))
    # normalize so every spelling of the same mix produces the same
    # params key and worker args
    kind_weights = tuple((str(k), float(w)) for k, w in kind_weights)
    _WORKER_CACHE.clear()

    # scheme spellings feed per-trial seeds, shard names and result keys:
    # canonicalize once so every alias produces byte-identical campaigns
    groups = [
        (workload, canonical_scheme(scheme, config), profiles)
        for workload, scheme, profiles in groups
    ]

    workload_by_name = {w.name: w for w, _, _ in groups}
    profiles_by_key: Dict[Tuple[str, str], Optional[Dict[str, LoopProfile]]] = {
        (w.name, s): p for w, s, p in groups
    }

    tasks: List[CampaignTask] = []
    for workload, scheme, _profiles in groups:
        for start in range(0, trials, chunk):
            tasks.append(CampaignTask(
                workload.name, scheme, start, min(chunk, trials - start),
                seed, scale,
            ))

    scheme_hashes = {
        scheme: get_scheme(scheme, config).descriptor_hash()
        for _, scheme, _ in groups
    }
    params_key = _params_key(
        trials, seed, scale, config, kind_weights, scheme_hashes)
    trace_run = ""
    shard_paths: Dict[str, str] = {}
    if trace_out is not None:
        # derived, not random: shards across any worker count (and
        # re-runs at the same parameters) stamp the same run id
        trace_run = run_id_for(
            "campaign", params_key,
            sorted((w.name, s) for w, s, _ in groups),
        )
        shard_dir = trace_out + ".shards"
        os.makedirs(shard_dir, exist_ok=True)
        for task in tasks:
            shard_paths[task.key] = os.path.join(
                shard_dir, task.key.replace("|", "_") + ".jsonl"
            )

    # a checkpointed campaign owns its file exclusively: a second campaign
    # pointed at the same path errors cleanly instead of interleaving
    lock = CheckpointLock(checkpoint).acquire() if checkpoint is not None else None
    try:
        chunks: Dict[str, dict] = {}
        if checkpoint is not None and resume:
            chunks = _load_checkpoint(checkpoint, params_key)
        pending = [t for t in tasks if t.key not in chunks]
        # the checkpoint's entries: the loaded ones in file order, then
        # the pending chunks in task order (whatever order they finish
        # in), each encoded once
        texts: Dict[str, Optional[str]] = {
            key: _chunk_text(key, data) for key, data in chunks.items()}
        texts.update(dict.fromkeys(t.key for t in pending))

        total_trials = trials * len(groups)
        done_trials = total_trials - sum(t.count for t in pending)
        started = time.monotonic()
        if progress is not None:
            progress(done_trials, total_trials, 0.0)

        def record(index: int, result: Tuple[str, dict]) -> None:
            nonlocal done_trials
            task = pending[index]
            chunks[task.key] = result[1]
            done_trials += task.count
            if checkpoint is not None:
                texts[task.key] = _chunk_text(task.key, result[1])
                _save_checkpoint(checkpoint, params_key, texts)
            if progress is not None:
                progress(done_trials, total_trials, time.monotonic() - started)
            if jobs <= 1 and task.start + task.count == trials:
                # inline chunks run campaign by campaign: free a finished
                # campaign's program instead of holding every group's
                _WORKER_CACHE.pop(_cache_key(task, config), None)

        def task_args(task: CampaignTask):
            args = (
                task,
                workload_by_name[task.workload],
                config,
                profiles_by_key[(task.workload, task.scheme)],
                inp,
                kind_weights,
            )
            if trace_out is not None:
                args += (shard_paths[task.key], trace_run)
            return args

        map_chunks(
            _run_chunk,
            [task_args(task) for task in pending],
            jobs=jobs,
            on_result=record,
        )
    finally:
        if lock is not None:
            lock.release()

    # assemble per-campaign results by merging chunks in task order —
    # groups as given, chunks by trial start — so the outcome of a
    # parallel run never depends on completion order
    results: Dict[Tuple[str, str], CampaignResult] = {}
    for task in tasks:
        part = CampaignResult.from_dict(chunks[task.key])
        merged = results.setdefault((task.workload, task.scheme), part)
        if merged is not part:
            merged.merge(part)

    if trace_out is not None:
        _merge_campaign_trace(
            trace_out, trace_run, groups, tasks, shard_paths, chunks,
            results, trials=trials, seed=seed, scale=scale, jobs=jobs,
            chunk=chunk, config=config,
        )
    return results


def _merge_campaign_trace(
    trace_out: str,
    trace_run: str,
    groups,
    tasks: Sequence[CampaignTask],
    shard_paths: Dict[str, str],
    chunks: Dict[str, dict],
    results: Dict[Tuple[str, str], CampaignResult],
    *,
    trials: int,
    seed: int,
    scale: float,
    jobs: int,
    chunk: int,
    config: Optional[RSkipConfig],
) -> None:
    """Merge per-chunk shard files into *trace_out* and write its manifest.

    Shards are concatenated in task order — groups as given, chunks by
    trial start — never completion order, so the merged trace is
    byte-identical for any *jobs*.  A missing shard means the chunk came
    from a checkpoint written by an untraced (or cleaned-up) run; the
    merge fails loudly rather than produce a silently partial trace.
    """
    merged_events = merge_traces(
        [shard_paths[t.key] for t in tasks],
        trace_out,
        missing_hint=(
            "chunk was restored from a checkpoint that predates tracing; "
            "delete the checkpoint file and re-run with --trace-out"
        ),
    )

    spans = [
        (f"shard:{t.key}", chunks[t.key]["elapsed_ms"])
        for t in tasks if "elapsed_ms" in chunks[t.key]
    ]
    engine_ms: Dict[str, float] = {}  # summed per label over the shards
    for t in tasks:
        for label, ms in chunks[t.key].get("spans", ()):
            engine_ms[label] = engine_ms.get(label, 0.0) + ms
    spans.extend(sorted(engine_ms.items()))
    fingerprints: Dict[str, str] = {}
    for t in tasks:
        label = f"{t.workload}|{t.scheme}"
        print_ = chunks[t.key].get("fingerprint")
        if print_ and label not in fingerprints:
            fingerprints[label] = print_
    totals: Dict[str, int] = {"trials": 0, "caught": 0, "detected": 0,
                              "false_negatives": 0}
    for result in results.values():
        totals["trials"] += result.trials
        totals["caught"] += result.caught
        totals["detected"] += result.detected
        totals["false_negatives"] += result.false_negatives
        for outcome, count in result.tallies.items():
            name = getattr(outcome, "name", str(outcome))
            totals[name] = totals.get(name, 0) + count

    RunManifest(
        run=trace_run,
        command="campaign",
        backend=default_backend(),
        config=repr(config),
        params={"trials": trials, "seed": seed, "scale": scale,
                "jobs": jobs, "chunk": chunk,
                "groups": [f"{w.name}|{s}" for w, s, _ in groups]},
        fingerprints=fingerprints,
        totals=totals,
        events=merged_events,
        spans=spans,
    ).write(trace_out)


def run_campaign_parallel(
    workload: Workload,
    scheme: str,
    trials: int,
    seed: int = 0,
    scale: float = 0.45,
    config: Optional[RSkipConfig] = None,
    profiles: Optional[Dict[str, LoopProfile]] = None,
    inp: Optional[WorkloadInput] = None,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
    chunk: int = DEFAULT_CHUNK,
    trace_out: Optional[str] = None,
    kind_weights: Tuple = DEFAULT_KIND_WEIGHTS,
) -> CampaignResult:
    """One (workload, scheme) campaign on the parallel engine."""
    results = run_campaigns(
        [(workload, scheme, profiles)], trials=trials, seed=seed, scale=scale,
        config=config, jobs=jobs, checkpoint=checkpoint, resume=resume,
        progress=progress, chunk=chunk, inp=inp, trace_out=trace_out,
        kind_weights=kind_weights,
    )
    return results[(workload.name, canonical_scheme(scheme, config))]


def eta_printer(label: str = "campaign") -> ProgressFn:
    """A progress callback that renders completion and ETA on one line."""

    def report(done: int, total: int, elapsed: float) -> None:
        if done <= 0 or total <= 0:
            return
        rate = done / elapsed if elapsed > 0 else 0.0
        remaining = (total - done) / rate if rate > 0 else 0.0
        end = "\n" if done >= total else ""
        print(
            f"\r   {label}: {done}/{total} trials "
            f"({done / total:5.1%}), {elapsed:6.1f}s elapsed, "
            f"ETA {remaining:6.1f}s ",
            end=end, flush=True,
        )

    return report
