"""Run manifests — the who/what/how of a JSONL trace.

Every trace file gets a sibling ``<trace>.manifest.json`` describing the
run that produced it: command, deterministic run id, backend, config,
seed/params, module fingerprints, counter totals, event count and the
wall-clock spans.  The manifest is the *only* place wall-clock data
lives; the trace body stays deterministic (see `repro.obs.events`).
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

MANIFEST_VERSION = 1


def run_id_for(*parts) -> str:
    """A deterministic run id from the run's identifying parameters.

    Derived (not random) so campaign shards across any worker count —
    and re-runs at the same parameters — stamp identical ids into their
    events, keeping merged traces byte-identical.
    """
    text = json.dumps([repr(p) for p in parts], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def manifest_path_for(trace_path: str) -> str:
    return trace_path + ".manifest.json"


@dataclass
class RunManifest:
    """Schema of ``<trace>.manifest.json`` (DESIGN.md §"Observability")."""

    run: str
    command: str
    #: execution backend clean runs used ("ref" | "compiled")
    backend: str = ""
    #: repr() of the RSkipConfig in effect (None-safe)
    config: str = ""
    params: Dict[str, object] = field(default_factory=dict)
    #: sha256 module fingerprints, keyed "workload|scheme"
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: counter totals, e.g. SkipStats fields or campaign tallies
    totals: Dict[str, object] = field(default_factory=dict)
    #: events written to the trace body
    events: int = 0
    #: wall-clock spans [(label, ms)] — telemetry, never deterministic
    spans: List[Tuple[str, float]] = field(default_factory=list)
    version: int = MANIFEST_VERSION
    written_at: float = 0.0

    def write(self, trace_path: str) -> str:
        """Write next to *trace_path*; returns the manifest path."""
        return self.write_to(manifest_path_for(trace_path))

    def write_to(self, path: str) -> str:
        """Write the manifest to an exact *path* (the serve daemon stamps
        one per request under its audit directory, no trace sibling)."""
        self.written_at = time.time()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(asdict(self), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, trace_path: str) -> Optional["RunManifest"]:
        """The manifest next to *trace_path*, or None if there is none."""
        import os

        path = manifest_path_for(trace_path)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if not isinstance(data, dict) or data.get("version") != MANIFEST_VERSION:
                raise ValueError("unsupported manifest version")
            return cls(
                run=data["run"],
                command=data["command"],
                backend=data.get("backend", ""),
                config=data.get("config", ""),
                params=data.get("params", {}),
                fingerprints=data.get("fingerprints", {}),
                totals=data.get("totals", {}),
                events=data.get("events", 0),
                spans=[tuple(s) for s in data.get("spans", [])],
                written_at=data.get("written_at", 0.0),
            )
        except KeyError as exc:
            raise ValueError(f"{path}: manifest lacks key {exc}") from None
        except ValueError as exc:  # a corrupt or truncated file, too
            raise ValueError(f"{path}: {exc}") from None
