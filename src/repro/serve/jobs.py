"""Background campaign jobs: submit, poll, crash-recover.

A fault-injection campaign is minutes of work — far past any sane HTTP
request budget — so ``POST /campaigns`` returns ``202`` with a job id
and the campaign runs on a dedicated executor.  Persistence is layered
on the machinery the engine already has:

* every chunk the engine finishes lands in the job's **checkpoint**
  file (atomic write-then-rename, ``campaign_engine._save_checkpoint``);
* the job **record** (params, status, progress) is its own JSON file
  under ``<state>/jobs/``, saved with the same atomicity;
* on daemon restart, :meth:`JobManager.recover` re-submits every job
  that was queued or running with ``resume=True`` — the engine skips the
  checkpointed chunks, and the final tallies are byte-identical to an
  uninterrupted run (the resume path the campaign tests already pin).

The checkpoint lock (:class:`repro.eval.CheckpointLock`) makes the
crash-recovery story safe: a SIGKILLed daemon leaves a lock naming a
dead pid, which the restarted daemon steals; a *live* owner makes the
resume fail cleanly instead of interleaving two writers.
"""
from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from ..eval import Harness
from ..eval.campaign_engine import CheckpointBusyError, run_campaign_parallel
from ..pipeline.registry import canonical_scheme, get_scheme
from ..workloads import get_workload

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: trial-count ceiling per job — admission control for work size, not
#: just request count
MAX_TRIALS = 100_000

#: chunks per checkpoint write; small so a kill loses little work
DEFAULT_JOB_CHUNK = 5


@dataclass
class JobRecord:
    """One campaign job; everything here round-trips through JSON."""

    id: str
    params: Dict[str, object]
    status: str = JOB_QUEUED
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    done_trials: int = 0
    total_trials: int = 0
    error: str = ""
    result: Optional[dict] = None
    checkpoint: str = ""
    #: times this record was picked up by a (re)started daemon
    restarts: int = 0

    def view(self) -> dict:
        """JSON-safe poll response."""
        data = asdict(self)
        if self.total_trials:
            data["progress"] = self.done_trials / self.total_trials
        return data


class JobManager:
    """Owns the job records, their executor, and the state directory."""

    def __init__(self, directory: str, max_workers: int = 1,
                 chunk: int = DEFAULT_JOB_CHUNK):
        self.directory = directory
        self.jobs_dir = os.path.join(directory, "jobs")
        self.checkpoints_dir = os.path.join(directory, "checkpoints")
        os.makedirs(self.jobs_dir, exist_ok=True)
        os.makedirs(self.checkpoints_dir, exist_ok=True)
        self.chunk = max(1, int(chunk))
        self.executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-job")
        self._records: Dict[str, JobRecord] = {}
        # records are mutated by executor threads and read by the event
        # loop; every touch goes through this lock
        self._lock = threading.Lock()
        self._seq = 0

    # -- persistence ----------------------------------------------------------
    def _record_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def _save(self, record: JobRecord) -> None:
        payload = asdict(record)
        fd, tmp = tempfile.mkstemp(
            prefix=".job-", suffix=".tmp", dir=self.jobs_dir)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, self._record_path(record.id))
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    def recover(self) -> List[str]:
        """Load persisted records; re-submit unfinished jobs with resume.

        Returns the ids that were resumed, oldest first — the restart
        half of the crash-recovery contract.
        """
        try:
            names = sorted(os.listdir(self.jobs_dir))
        except OSError:
            return []
        resumed: List[str] = []
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.jobs_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = JobRecord(**json.load(handle))
            except (OSError, ValueError, TypeError):
                continue  # corrupt record: leave for inspection, skip
            with self._lock:
                self._records[record.id] = record
            if record.status in (JOB_QUEUED, JOB_RUNNING):
                with self._lock:
                    record.status = JOB_QUEUED
                    record.restarts += 1
                self._save(record)
                self.executor.submit(self._run, record.id)
                resumed.append(record.id)
        return resumed

    # -- submission -----------------------------------------------------------
    def _new_id(self) -> str:
        with self._lock:
            self._seq += 1
            seq = self._seq
        return f"{int(time.time() * 1000):013d}-{seq:04d}-{os.urandom(3).hex()}"

    @staticmethod
    def normalize_params(body: dict) -> Dict[str, object]:
        """Validate and normalize a ``POST /campaigns`` body; raises
        ``ValueError`` with a client-presentable message."""
        workload = body.get("workload")
        if not isinstance(workload, str):
            raise ValueError("'workload' (string) is required")
        try:
            get_workload(workload)
        except KeyError as exc:
            raise ValueError(str(exc.args[0] if exc.args else exc))
        scheme = canonical_scheme(body.get("scheme", "UNSAFE"))
        trials = body.get("trials", 100)
        if not isinstance(trials, int) or not 1 <= trials <= MAX_TRIALS:
            raise ValueError(f"'trials' must be an int in [1, {MAX_TRIALS}]")
        seed = body.get("seed", 0)
        if not isinstance(seed, int):
            raise ValueError("'seed' must be an int")
        scale = body.get("scale", 0.6)
        if not isinstance(scale, (int, float)) or not 0.0 < scale <= 4.0:
            raise ValueError("'scale' must be a number in (0, 4]")
        # the CLI's injection discipline: SFI runs use smaller problems
        return {
            "workload": workload,
            "scheme": scheme,
            "trials": trials,
            "seed": seed,
            "scale": min(float(scale), 0.45),
        }

    def submit(self, body: dict) -> JobRecord:
        params = self.normalize_params(body)
        record = JobRecord(
            id=self._new_id(),
            params=params,
            created_at=time.time(),
            total_trials=params["trials"],
        )
        record.checkpoint = os.path.join(
            self.checkpoints_dir, f"{record.id}.json")
        with self._lock:
            self._records[record.id] = record
        self._save(record)
        self.executor.submit(self._run, record.id)
        return record

    # -- execution (jobs executor threads) ------------------------------------
    def _run(self, job_id: str) -> None:
        with self._lock:
            record = self._records.get(job_id)
            if record is None or record.status in (JOB_DONE, JOB_FAILED):
                return
            record.status = JOB_RUNNING
            record.started_at = time.time()
        self._save(record)

        def progress(done: int, total: int, _elapsed: float) -> None:
            # called once per finished chunk, right after the engine
            # checkpointed it — the record mirrors the durable state
            with self._lock:
                record.done_trials = done
                record.total_trials = total
            self._save(record)

        try:
            result = self._run_campaign(record, progress)
        except CheckpointBusyError as exc:
            self._finish(record, JOB_FAILED,
                         error=f"checkpoint busy: {exc}")
            return
        except Exception as exc:  # surfaced to the poller, not swallowed
            self._finish(record, JOB_FAILED, error=f"{type(exc).__name__}: {exc}")
            return
        with self._lock:
            record.result = result.to_dict()
            record.done_trials = record.total_trials
        # the record holds the tallies now; the checkpoint is spent.  It
        # goes before the status flips, so no poller that sees the job
        # done finds it still on disk
        try:
            os.remove(record.checkpoint)
        except OSError:
            pass
        self._finish(record, JOB_DONE)

    def _finish(self, record: JobRecord, status: str, error: str = "") -> None:
        with self._lock:
            record.status = status
            record.error = error
            record.finished_at = time.time()
        self._save(record)

    def _run_campaign(self, record: JobRecord, progress):
        params = record.params
        workload = get_workload(params["workload"])
        descriptor = get_scheme(params["scheme"])
        profiles = None
        if descriptor.needs_training:
            # the CLI's exact profile source, so job tallies are
            # byte-identical to `repro campaign` at the same params
            profiles = Harness(
                workload, scale=params["scale"], timing=False,
            ).profiles_for(descriptor.acceptable_range)
        return run_campaign_parallel(
            workload, descriptor.name,
            trials=params["trials"], seed=params["seed"],
            scale=params["scale"], profiles=profiles,
            jobs=1, chunk=self.chunk,
            checkpoint=record.checkpoint, resume=True,
            progress=progress,
        )

    # -- queries (event loop) -------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def list_views(self) -> List[dict]:
        with self._lock:
            records = sorted(self._records.values(), key=lambda r: r.id)
            return [record.view() for record in records]

    def stats(self) -> dict:
        with self._lock:
            by_status: Dict[str, int] = {}
            for record in self._records.values():
                by_status[record.status] = by_status.get(record.status, 0) + 1
        return {"jobs": sum(by_status.values()), "by_status": by_status}

    def shutdown(self, wait: bool = False) -> None:
        self.executor.shutdown(wait=wait, cancel_futures=True)
