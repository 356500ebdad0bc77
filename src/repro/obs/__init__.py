"""repro.obs — structured observability: events, sinks, manifests, reports.

See DESIGN.md §"Observability".  The contract in one paragraph: typed
:class:`Event` records flow through a module-level :func:`emit` that is
a near-free no-op until a sink is installed; event bodies are
deterministic (byte-identical traces for serial vs parallel campaigns)
while wall-clock *spans* live on the sink and end up in the run
manifest, never the trace body.
"""
from .events import (
    EXEC,
    Event,
    KINDS,
    PHASE_CUT,
    QOS_DISABLE,
    RECOMPUTE,
    RECOVERY,
    SKIP,
    TP_ADJUST,
    TRAIN_LOOP,
    TRIAL_OUTCOME,
    current_sink,
    emit,
    enabled,
    install_sink,
    remove_sink,
    sink_installed,
    span,
)
from .manifest import RunManifest, manifest_path_for, run_id_for
from .report import render_trace_report
from .sinks import JsonlSink, MemorySink, merge_traces, read_trace

__all__ = [
    "EXEC", "Event", "KINDS", "PHASE_CUT", "QOS_DISABLE", "RECOMPUTE",
    "RECOVERY", "SKIP", "TP_ADJUST", "TRAIN_LOOP", "TRIAL_OUTCOME",
    "current_sink", "emit", "enabled", "install_sink", "remove_sink",
    "sink_installed", "span",
    "RunManifest", "manifest_path_for", "run_id_for",
    "render_trace_report",
    "JsonlSink", "MemorySink", "merge_traces", "read_trace",
]
