"""Render a JSONL trace as a human-readable run report.

``repro report <trace.jsonl>`` lands here: per-loop skip-rate timelines
(one column per loop execution, bucketed when the run is long), QoS
disable causes, TP adjustment activity, recovery (mismatch/vote)
activity, SFI trial outcomes, and the manifest summary when one sits
next to the trace.
"""
from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from .events import (
    EXEC,
    Event,
    PHASE_CUT,
    QOS_DISABLE,
    RECOMPUTE,
    RECOVERY,
    SKIP,
    TP_ADJUST,
    TRAIN_LOOP,
    TRIAL_OUTCOME,
)
from .manifest import RunManifest

#: ASCII intensity ramp for the skip-rate timeline (0% .. 100%).
_RAMP = " .:-=+*#@"
#: Maximum timeline columns before executions are bucketed.
_TIMELINE_WIDTH = 60


def _ramp_char(rate: float) -> str:
    rate = min(max(rate, 0.0), 1.0)
    return _RAMP[min(int(rate * len(_RAMP)), len(_RAMP) - 1)]


def _timeline(rates: List[float], width: int = _TIMELINE_WIDTH) -> str:
    """One character per execution; long runs average into <= width buckets."""
    if not rates:
        return ""
    if len(rates) <= width:
        return "".join(_ramp_char(r) for r in rates)
    out = []
    n = len(rates)
    for col in range(width):
        lo = col * n // width
        hi = max((col + 1) * n // width, lo + 1)
        chunk = rates[lo:hi]
        out.append(_ramp_char(sum(chunk) / len(chunk)))
    return "".join(out)


def render_trace_report(events: List[Event],
                        manifest: Optional[RunManifest] = None) -> str:
    """The full text report for one trace."""
    lines: List[str] = []
    kinds = Counter(e.kind for e in events)
    runs = sorted({e.run for e in events})
    head = f"trace: {len(events)} events"
    if runs:
        head += f", run {', '.join(runs)}"
    lines.append(head)
    if kinds:
        lines.append("kinds: " + ", ".join(
            f"{kind}={n}" for kind, n in sorted(kinds.items())))
    if manifest is not None:
        lines.append(
            f"manifest: command={manifest.command} backend={manifest.backend}"
            + (f" params={_short_params(manifest.params)}"
               if manifest.params else "")
        )
        if manifest.fingerprints:
            for key, fp in sorted(manifest.fingerprints.items()):
                lines.append(f"  module {key}: {fp[:16]}…")
        if manifest.spans:
            lines.append("spans:")
            for label, ms in manifest.spans[:20]:
                lines.append(f"  {label:40s} {ms:10.1f} ms")
            if len(manifest.spans) > 20:
                lines.append(f"  … {len(manifest.spans) - 20} more")
    lines.append("")

    lines.extend(_render_loops(events))
    lines.extend(_render_trials(events))
    lines.extend(_render_training(events))
    return "\n".join(lines).rstrip() + "\n"


def _short_params(params: Dict[str, object]) -> str:
    keep = {k: v for k, v in params.items() if k != "config"}
    return ",".join(f"{k}={v}" for k, v in sorted(keep.items()))


def _render_loops(events: List[Event]) -> List[str]:
    by_loop: Dict[str, List[Event]] = {}
    for event in events:
        if event.loop is not None:
            by_loop.setdefault(event.loop, []).append(event)
    if not by_loop:
        return []

    lines = ["-- per-loop activity --"]
    for loop in sorted(by_loop):
        evs = by_loop[loop]
        execs = [e for e in evs if e.kind == EXEC]
        rates = [
            (e.payload.get("skipped", 0) / e.payload["elements"])
            for e in execs if e.payload.get("elements", 0) > 0
        ]
        phases = sum(1 for e in evs if e.kind == PHASE_CUT)
        skips = Counter()
        for e in evs:
            if e.kind == SKIP:
                skips[e.payload.get("predictor", "?")] += e.payload.get("count", 0)
        recomputes = sum(
            e.payload.get("count", 0) for e in evs if e.kind == RECOMPUTE)
        adjusts = [e for e in evs if e.kind == TP_ADJUST]
        disables = [e for e in evs if e.kind == QOS_DISABLE]
        recoveries = Counter(
            e.payload.get("stage", "?") for e in evs if e.kind == RECOVERY)

        lines.append(f"{loop}:")
        lines.append(
            f"  executions {len(execs)}, phases {phases}, "
            f"skips {dict(sorted(skips.items())) or 0}, recomputes {recomputes}"
        )
        if rates:
            mean = sum(rates) / len(rates)
            lines.append(f"  skip-rate timeline (mean {mean:5.1%}): "
                         f"|{_timeline(rates)}|")
        if adjusts:
            first, last = adjusts[0].payload, adjusts[-1].payload
            lines.append(
                f"  tp adjustments {len(adjusts)}: "
                f"{first.get('old')} -> … -> {last.get('new')}"
            )
        for e in disables:
            p = e.payload
            cause = ", ".join(
                f"{k}={v}" for k, v in sorted(p.items()) if k != "predictor")
            lines.append(
                f"  QOS DISABLE [{p.get('predictor', '?')}] at seq {e.seq}: {cause}")
        if recoveries:
            verdicts = Counter(
                e.payload.get("verdict") for e in evs
                if e.kind == RECOVERY and "verdict" in e.payload)
            detail = ""
            if verdicts:
                detail = " (" + ", ".join(
                    f"{k}={n}" for k, n in sorted(verdicts.items())) + ")"
            lines.append(
                f"  recovery: {recoveries.get('detect', 0)} mismatches, "
                f"{recoveries.get('vote', 0)} votes{detail}"
            )
    lines.append("")
    return lines


def _render_trials(events: List[Event]) -> List[str]:
    trials = [e for e in events if e.kind == TRIAL_OUTCOME]
    if not trials:
        return []
    lines = ["-- SFI trials --"]
    by_campaign: Dict[str, List[Event]] = {}
    for e in trials:
        key = f"{e.payload.get('workload', '?')}/{e.payload.get('scheme', '?')}"
        by_campaign.setdefault(key, []).append(e)
    for key in sorted(by_campaign):
        evs = by_campaign[key]
        outcomes = Counter(e.payload.get("outcome", "?") for e in evs)
        caught = sum(1 for e in evs if e.payload.get("caught"))
        fns = sum(1 for e in evs if e.payload.get("false_negative"))
        detected = sum(1 for e in evs if e.payload.get("detected"))
        lines.append(f"{key}: {len(evs)} trials")
        lines.append("  outcomes: " + ", ".join(
            f"{name}={n}" for name, n in sorted(outcomes.items())))
        lines.append(
            f"  caught (voted) {caught}, detected (aborted) {detected}, "
            f"false negatives {fns}"
        )
    lines.append("")
    return lines


def _render_training(events: List[Event]) -> List[str]:
    trains = [e for e in events if e.kind == TRAIN_LOOP]
    if not trains:
        return []
    lines = ["-- offline training --"]
    for e in trains:
        p = e.payload
        lines.append(
            f"{e.loop}: {p.get('executions', 0)} traces, "
            f"{p.get('elements', 0)} elements, default TP {p.get('default_tp')}, "
            f"{p.get('qos_entries', 0)} QoS entries"
            + (", memo" if p.get("memo") else "")
        )
    lines.append("")
    return lines
