"""Event sinks: bounded in-memory ring and JSONL trace files.

The "null sink" is the absence of a sink (``events.enabled()`` is
False); it has no object because the disabled path must not even
construct payloads.

``JsonlSink`` owns its file descriptor exclusively — campaign workers
each write their own shard file and the parent merges them afterwards
(:func:`merge_traces`), so no two processes ever interleave writes into
a shared fd.
"""
from __future__ import annotations

import os
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from .events import Event

#: Default capacity of the in-memory ring.
DEFAULT_RING = 4096


class MemorySink:
    """Bounded in-memory event ring (oldest events drop first)."""

    def __init__(self, capacity: int = DEFAULT_RING):
        self.events: Deque[Event] = deque(maxlen=capacity)
        self.spans: List[Tuple[str, float]] = []
        self.dropped = 0

    def write(self, event: Event) -> None:
        if len(self.events) == self.events.maxlen:
            self.dropped += 1
        self.events.append(event)

    def record_span(self, label: str, ms: float) -> None:
        self.spans.append((label, ms))

    def close(self) -> None:  # symmetry with JsonlSink
        pass

    def kinds(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out


class JsonlSink:
    """Streams events to a JSONL file, one canonical line per event.

    ``spans`` accumulate in memory for the caller to fold into the run
    manifest (:mod:`repro.obs.manifest`); they are never written into
    the trace body, which stays deterministic.
    """

    def __init__(self, path: str):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "w", encoding="utf-8")
        self.count = 0
        self.spans: List[Tuple[str, float]] = []

    def write(self, event: Event) -> None:
        self._handle.write(event.to_line())
        self._handle.write("\n")
        self.count += 1

    def record_span(self, label: str, ms: float) -> None:
        self.spans.append((label, ms))

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path: str) -> List[Event]:
    """Parse a JSONL trace back into events; a line that is not an event
    raises ``ValueError`` naming the file and line."""
    events: List[Event] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if line:
                try:
                    events.append(Event.from_line(line))
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValueError(
                        f"{path}:{number}: not a trace event ({exc!r})"
                    ) from None
    return events


def merge_traces(shard_paths: List[str], out_path: str,
                 missing_hint: Optional[str] = None) -> int:
    """Merge per-worker shard traces into one file, deterministically.

    Shards are concatenated in the order given (callers sort by task
    identity, never completion order) and the per-shard sequence numbers
    are rewritten into one monotonic stream — equal shard contents in
    equal order produce a byte-identical merged file for any worker
    count.  Returns the merged event count.
    """
    seq = 0
    tmp = out_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as out:
        for shard in shard_paths:
            if not os.path.exists(shard):
                os.unlink(tmp)
                detail = f" ({missing_hint})" if missing_hint else ""
                raise FileNotFoundError(
                    f"trace shard missing: {shard}{detail}")
            for event in read_trace(shard):
                event.seq = seq
                seq += 1
                out.write(event.to_line())
                out.write("\n")
    os.replace(tmp, out_path)
    return seq
