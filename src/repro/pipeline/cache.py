"""Fingerprint-keyed artifact cache for pipeline products.

Protecting a module is deterministic: the same input text through the
same pass list always yields the same output text (the print/parse
fixpoint oracle O2 pins this).  Campaign workers, difftest oracles and
benchmarks therefore re-derive identical artifacts hundreds of times.
This cache memoizes them, keyed by **module fingerprint × scheme
descriptor hash** (plus whatever else shaped the artifact — pass list,
sync points, training parameters), with two tiers:

* an in-process LRU (:class:`ArtifactCache`), always on when caching is
  enabled;
* an optional on-disk store under ``.repro-cache/`` (one JSON file per
  key, atomic write-then-rename) that survives processes — useful for
  repeated campaign/benchmark invocations.

Payloads are JSON-safe dicts.  Protected modules are stored as printed
IR text and re-materialized on hit (parse once per key, structural
clones afterwards), so a cached artifact is byte-identical to a fresh
one *by construction* (O2 again).  Entries embed the full key:
if a module changes, its fingerprint changes, the key changes, and the
stale entry simply never resolves — invalidation is structural.

Configuration is environment-driven so every entry point (CLI, pytest,
campaign workers) agrees without plumbing:

* ``REPRO_CACHE`` — ``off`` (no caching), ``mem`` (in-process LRU, the
  default), ``on`` (LRU + disk store);
* ``REPRO_CACHE_DIR`` — disk store location (default ``.repro-cache``).
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Optional

#: Bump when payload layout changes; stale on-disk entries become misses.
CACHE_VERSION = 1

#: Default on-disk store location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

MODE_OFF = "off"
MODE_MEM = "mem"
MODE_DISK = "on"

_MODE_ALIASES = {
    "off": MODE_OFF, "0": MODE_OFF, "false": MODE_OFF, "no": MODE_OFF,
    "mem": MODE_MEM, "memory": MODE_MEM, "": MODE_MEM,
    "on": MODE_DISK, "disk": MODE_DISK, "1": MODE_DISK, "true": MODE_DISK,
    "yes": MODE_DISK,
}


def cache_mode() -> str:
    """The configured cache mode (``off`` / ``mem`` / ``on``)."""
    raw = os.environ.get("REPRO_CACHE", MODE_MEM).strip().lower()
    mode = _MODE_ALIASES.get(raw)
    if mode is None:
        raise ValueError(
            f"bad REPRO_CACHE value {raw!r}; choose off, mem, or on"
        )
    return mode


def cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


def artifact_key(*parts) -> str:
    """Stable digest over JSON-safe key *parts* (order matters)."""
    def norm(part):
        if isinstance(part, (tuple, set, frozenset)):
            return sorted(part) if isinstance(part, (set, frozenset)) else list(part)
        return part

    payload = json.dumps([norm(p) for p in parts],
                         sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ArtifactCache:
    """In-process LRU over JSON-safe payloads, with an optional disk tier.

    ``get`` returns a deep-ish copy-free payload — callers must treat the
    returned dict as immutable (the protect layer only reads it).  Disk
    entries are validated against :data:`CACHE_VERSION` and their own
    embedded key; anything corrupt or stale is treated as a miss and
    removed — but only if the file on disk is still the one that was
    read (:meth:`_drop_stale`), so a concurrent writer's fresh entry is
    never deleted.

    The memory tier and the hit/miss counters are guarded by a lock:
    the serve daemon's executor threads share one instance, and both
    ``OrderedDict`` reordering and ``+=`` on the counters are unsafe
    under concurrent mutation.  Disk I/O happens outside the lock —
    the disk protocol is already safe under contention (atomic
    write-then-rename, identity-checked removal).
    """

    def __init__(self, capacity: int = 64, directory: Optional[str] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.directory = directory
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.puts = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[dict]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
        if self.directory is not None:
            entry = self._read_disk(key)
            if entry is not None:
                with self._lock:
                    self.hits += 1
                    self.disk_hits += 1
                    self._remember(key, entry)
                return entry
        with self._lock:
            self.misses += 1
        return None

    def put(self, key: str, payload: dict) -> None:
        with self._lock:
            self.puts += 1
            self._remember(key, payload)
        if self.directory is not None:
            self._write_disk(key, payload)

    def _remember(self, key: str, payload: dict) -> None:
        # caller holds self._lock
        self._entries[key] = payload
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def _read_disk(self, key: str) -> Optional[dict]:
        path = self._path(key)
        try:
            handle = open(path, "r", encoding="utf-8")
        except OSError:
            return None
        with handle:
            try:
                stamp = os.fstat(handle.fileno())
            except OSError:
                stamp = None
            try:
                record = json.load(handle)
            except ValueError:
                # unparseable entry (truncated write, manual edit): drop it
                # so it cannot shadow a future valid write-then-crash
                # sequence
                _drop_stale(path, stamp)
                return None
        if (
            not isinstance(record, dict)
            or record.get("version") != CACHE_VERSION
            or record.get("key") != key
            or not isinstance(record.get("payload"), dict)
        ):
            _drop_stale(path, stamp)
            return None
        return record["payload"]

    def _write_disk(self, key: str, payload: dict) -> None:
        record = {"version": CACHE_VERSION, "key": key, "payload": payload}
        try:
            os.makedirs(self.directory, exist_ok=True)
            write_atomic(self._path(key),
                         json.dumps(record, separators=(",", ":")))
        except OSError:
            # a read-only or full disk degrades to memory-only caching
            pass

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries), "capacity": self.capacity,
                "hits": self.hits, "misses": self.misses,
                "disk_hits": self.disk_hits, "puts": self.puts,
                "directory": self.directory,
            }


def write_atomic(path: str, text: str) -> None:
    """Replace *path* with *text* in one step: write a ``.``-prefixed
    ``*.tmp`` sibling (what :func:`sweep_stale_tmp` collects after a
    crash) and ``os.replace`` it over *path*.  A write that fails leaves
    *path* as it was and removes the temp file, then re-raises."""
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}-", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def _drop_stale(path: str, stamp) -> None:
    """Remove *path* only if it is still the file identified by *stamp*.

    Closes the TOCTOU between reading a corrupt/stale entry and removing
    it: a concurrent ``_write_disk`` may ``os.replace`` a fresh, valid
    entry onto *path* in between, and an unconditional ``os.remove``
    would delete that writer's work.  The fstat taken while the bad file
    was open identifies exactly what was read; if the directory entry now
    points at a different inode, the bad file is already gone and there
    is nothing to clean up.
    """
    try:
        current = os.stat(path)
    except OSError:
        return
    if stamp is not None and (
        (current.st_ino, current.st_dev) != (stamp.st_ino, stamp.st_dev)
    ):
        return
    try:
        os.remove(path)
    except OSError:
        pass


#: Tmp files older than this are presumed orphaned by a crashed writer.
STALE_TMP_AGE = 3600.0


def sweep_stale_tmp(directory: str, max_age: float = STALE_TMP_AGE) -> int:
    """Remove ``*.tmp`` files under *directory* older than *max_age* seconds.

    :func:`write_atomic` (behind the cache and section store, campaign
    checkpoints and serve job records) leaks its temp file when the
    process dies between ``mkstemp`` and ``os.replace``.  The
    age gate keeps a live writer's in-flight tmp safe; anything older
    has no owner.  Returns the number of files removed.
    """
    removed = 0
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    cutoff = time.time() - max_age
    for name in names:
        if not name.endswith(".tmp"):
            continue
        path = os.path.join(directory, name)
        try:
            if os.stat(path).st_mtime >= cutoff:
                continue
            os.remove(path)
            removed += 1
        except OSError:
            continue  # vanished or unreadable: someone else's problem
    return removed


_cache: Optional[ArtifactCache] = None
_cache_signature = None
_cache_init_lock = threading.Lock()


def get_cache() -> Optional[ArtifactCache]:
    """The process-wide cache per the current environment, or ``None``
    when caching is off.  Re-reads the environment on every call so tests
    and subprocesses can flip ``REPRO_CACHE`` without import-order games;
    the instance is rebuilt only when the configuration changes.  Init is
    locked so concurrent first callers (serve executor threads) agree on
    one instance instead of each building and publishing their own."""
    global _cache, _cache_signature
    mode = cache_mode()
    if mode == MODE_OFF:
        return None
    directory = cache_dir() if mode == MODE_DISK else None
    signature = (mode, directory)
    with _cache_init_lock:
        if _cache is None or _cache_signature != signature:
            _cache = ArtifactCache(directory=directory)
            _cache_signature = signature
        return _cache


def reset_cache() -> None:
    """Drop the process-wide cache (tests; campaign workers at startup)."""
    global _cache, _cache_signature
    with _cache_init_lock:
        _cache = None
        _cache_signature = None
