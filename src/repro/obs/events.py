"""Structured observability events — near-zero cost when disabled.

The run-time management of the paper (section 5-6) takes *dynamic*
decisions — phase cuts, accept/reject validation, QoS disables, TP
adjustments — that end-of-run ``SkipStats`` aggregates cannot explain.
This module gives every decision point a typed :class:`Event` record and
a single module-level :func:`emit` behind a sink that is ``None`` by
default.

Overhead policy (enforced by tests):

* **Disabled** (no sink installed): instrumentation sites guard with
  ``if enabled():`` *before* constructing any payload, so the cost of an
  un-traced run is one module-global ``is not None`` check per decision
  point — no Event objects, no dict allocation, no string formatting.
* **Enabled**: events are plain records handed to the sink synchronously;
  sinks must not block (the bundled sinks append to a deque or write one
  JSON line to a buffered file).

Determinism policy:

* Event bodies are **deterministic**: monotonic per-sink sequence number,
  a caller-chosen run id, loop key, kind, payload — never wall-clock
  time.  Serial and parallel campaigns therefore produce byte-identical
  merged traces (pinned by tests).
* Anything wall-clock lives in **spans** (:func:`span`), a separate
  channel collected on the sink and written to the run *manifest*, never
  into the trace body.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Optional

#: Event taxonomy (DESIGN.md §"Observability").  Element-granularity
#: kinds (skip / recompute) are aggregated per phase cut to bound trace
#: volume; one loop execution emits O(phases) events, not O(elements).
SKIP = "skip"                    #: per-phase skips, one event per predictor
RECOMPUTE = "recompute"          #: per-phase re-computation queue adds
RECOVERY = "recovery"            #: exact-validation mismatch / vote verdicts
PHASE_CUT = "phase-cut"          #: a dynamic-interpolation phase boundary
TP_ADJUST = "tp-adjust"          #: run-time management changed the TP
QOS_DISABLE = "qos-disable"      #: a predictor was disabled (interp / memo)
EXEC = "exec"                    #: one loop execution's (elements, skipped)
TRIAL_OUTCOME = "trial-outcome"  #: one SFI trial's classification
TRAIN_LOOP = "train-loop"        #: offline training finished one loop
PASS_RUN = "pass-run"            #: one compiler pass ran (in/out instr counts)

KINDS = (
    SKIP, RECOMPUTE, RECOVERY, PHASE_CUT, TP_ADJUST, QOS_DISABLE,
    EXEC, TRIAL_OUTCOME, TRAIN_LOOP, PASS_RUN,
)


@dataclass
class Event:
    """One structured observation.

    ``seq`` is assigned by :func:`emit` and is monotonic within a sink's
    lifetime; ``run`` identifies the producing run (campaign shards share
    their parent's deterministic run id); ``loop`` is the owning loop key
    for predictor events, ``None`` for run-level kinds.
    """

    seq: int
    run: str
    kind: str
    loop: Optional[str] = None
    payload: Dict[str, object] = field(default_factory=dict)

    def to_line(self) -> str:
        """Canonical JSONL form — stable key order, compact separators,
        so equal event streams serialize to byte-identical files."""
        return json.dumps(
            {"seq": self.seq, "run": self.run, "kind": self.kind,
             "loop": self.loop, "payload": self.payload},
            sort_keys=True, separators=(",", ":"),
        )

    @classmethod
    def from_line(cls, line: str) -> "Event":
        data = json.loads(line)
        return cls(data["seq"], data["run"], data["kind"],
                   data.get("loop"), data.get("payload", {}))


_sink = None
_run_id = ""
_seq = 0


def enabled() -> bool:
    """True when a sink is installed.  Instrumentation sites MUST check
    this before building an event payload (the disabled-cost contract)."""
    return _sink is not None


def current_sink():
    return _sink


def install_sink(sink, run_id: str = "local") -> None:
    """Install *sink* as the process-wide event consumer.

    Exactly one sink may be installed at a time — overlapping traces
    would interleave unrelated event streams (raise instead of guessing).
    The sequence counter restarts at 0 per installation.
    """
    global _sink, _run_id, _seq
    if _sink is not None:
        raise RuntimeError(
            "an observability sink is already installed; remove_sink() first"
        )
    _sink = sink
    _run_id = run_id
    _seq = 0


def remove_sink():
    """Uninstall and return the current sink (``None`` if none)."""
    global _sink
    sink, _sink = _sink, None
    return sink


@contextmanager
def sink_installed(sink, run_id: str = "local"):
    """Scoped :func:`install_sink` / :func:`remove_sink`."""
    install_sink(sink, run_id)
    try:
        yield sink
    finally:
        remove_sink()


@contextmanager
def diverted(sink):
    """Route events and spans to *sink* for the duration of the block,
    then put the installed sink back with its sequence counter as it
    was: the diverted events never reach the trace (the golden-prefix
    capture records events to re-emit them later, per trial)."""
    global _sink, _seq
    saved = _sink, _seq
    _sink = sink
    try:
        yield sink
    finally:
        _sink, _seq = saved


def emit(kind: str, loop: Optional[str] = None, **payload) -> None:
    """Record one event on the installed sink.

    Callers on hot paths guard with ``if enabled():`` so the kwargs dict
    is never built when tracing is off; calling with no sink installed is
    still safe (the event is dropped).
    """
    global _seq
    sink = _sink
    if sink is None:
        return
    event = Event(_seq, _run_id, kind, loop, payload)
    _seq += 1
    sink.write(event)


@contextmanager
def span(label: str):
    """Time a region and record ``(label, ms)`` on the installed sink.

    Spans are wall-clock telemetry: they go to the sink's span list (and
    from there to the run manifest), never into the deterministic trace
    body.  With no sink installed this is a no-op.
    """
    sink = _sink
    if sink is None:
        yield
        return
    t0 = perf_counter()
    try:
        yield
    finally:
        ms = (perf_counter() - t0) * 1000.0
        # re-read: the sink may have been removed inside the region
        target = _sink if _sink is not None else sink
        target.record_span(label, ms)
