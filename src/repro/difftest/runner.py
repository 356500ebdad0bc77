"""Sharded differential-test driver behind ``repro difftest``.

Splits the program stream ``[0, n)`` into index chunks dispatched through
:func:`repro.eval.campaign_engine.map_chunks` — the same process-pool
backbone the SFI campaigns use.  Every per-program decision (shape,
pipeline, protection scheme, fault plans) derives from ``stable_seed``
of the program index, and the merged report is assembled in index order,
so the output is byte-identical for any ``--jobs``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..eval.campaign_engine import map_chunks
from ..ir.printer import format_module
from ..workloads.base import stable_seed
from .generator import generate, generate_phased
from .oracles import (
    CLEANUP_PASSES,
    PROTECTION_PASSES,
    Violation,
    check_backend_equivalence,
    check_batch_equivalence,
    check_fault_metamorphic,
    check_incremental_equivalence,
    check_pipeline,
    check_roundtrip,
    check_skip_exhaustive,
)
from .shrink import instruction_count, shrink_module

#: Program indices per work unit.
DEFAULT_CHUNK = 20

#: Shadow-flip trials per O3 check.
DEFAULT_FAULT_SAMPLES = 12

ORACLES = ("all", "o1", "o2", "o3", "o4", "o5", "o6", "o7")

_CLEANUP_NAMES = tuple(sorted(CLEANUP_PASSES))
_PROTECTION_NAMES = tuple(sorted(PROTECTION_PASSES))


@dataclass
class IndexRecord:
    """Everything the runner decided and observed for one program index."""

    index: int
    shape: str
    pipeline: Tuple[str, ...]
    protection: Optional[str]
    violations: List[Violation] = field(default_factory=list)
    #: shadow flips that landed / were detected during the O3 check
    o3_landed: int = 0
    o3_detected: int = 0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "shape": self.shape,
            "pipeline": list(self.pipeline),
            "protection": self.protection,
            "violations": [v.to_dict() for v in self.violations],
            "o3_landed": self.o3_landed,
            "o3_detected": self.o3_detected,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IndexRecord":
        return cls(
            data["index"], data["shape"], tuple(data["pipeline"]),
            data["protection"],
            [Violation.from_dict(v) for v in data["violations"]],
            data["o3_landed"], data["o3_detected"],
        )


@dataclass
class DifftestReport:
    seed: int
    n: int
    oracle: str
    records: List[IndexRecord]
    shrunk_files: List[str] = field(default_factory=list)
    #: campaign-level findings (e.g. swift never detecting anything)
    extra_violations: List[Violation] = field(default_factory=list)

    @property
    def violations(self) -> List[Violation]:
        return [v for r in self.records for v in r.violations] + self.extra_violations

    @property
    def swift_liveness(self) -> Tuple[int, int]:
        """(detected, landed) shadow-flip totals over swift-protected runs."""
        landed = sum(r.o3_landed for r in self.records if r.protection == "swift")
        detected = sum(r.o3_detected for r in self.records if r.protection == "swift")
        return detected, landed

    @property
    def failing(self) -> List[IndexRecord]:
        return [r for r in self.records if r.violations]


def plan_index(seed: int, index: int) -> Tuple[Tuple[str, ...], str]:
    """The (pipeline, protection) drawn for a program index.

    Deterministic in ``(seed, index)`` alone, so any process — and the
    shrinker replaying a failure — reconstructs the same plan.
    """
    rng = random.Random(stable_seed(seed, "difftest.plan", index))
    stages = [rng.choice(_CLEANUP_NAMES)
              for _ in range(rng.randint(1, 3))]
    protection = _PROTECTION_NAMES[rng.randrange(len(_PROTECTION_NAMES))]
    if rng.random() < 0.5:
        stages.append(protection)
    return tuple(stages), protection


def _oracle_calls(record: IndexRecord, seed: int, fault_samples: int,
                  stats: dict, full: bool) -> dict:
    """Oracle name -> its check of a module for *record*, in report
    order.  *full* marks a run of every oracle: O1 then also round-trips
    each stage.  O3 adds its shadow-flip counts to *stats*."""
    index, protection = record.index, record.protection
    return {
        "o2": lambda module: check_roundtrip(module, context="generated"),
        "o1": lambda module: check_pipeline(
            module, record.pipeline, roundtrip=full)[0],
        "o3": lambda module: check_fault_metamorphic(
            module, protection, samples=fault_samples,
            seed=stable_seed(seed, "difftest.faults", index), stats=stats),
        "o4": lambda module: check_backend_equivalence(module, protection),
        "o5": lambda module: check_batch_equivalence(
            module, protection,
            seed=stable_seed(seed, "difftest.batch", index)),
        "o6": lambda module: check_skip_exhaustive(module, protection),
        "o7": lambda module: check_incremental_equivalence(
            module, protection,
            seed=stable_seed(seed, "difftest.incremental", index)),
    }


def check_index(
    seed: int,
    index: int,
    oracle: str = "all",
    fault_samples: int = DEFAULT_FAULT_SAMPLES,
) -> IndexRecord:
    """Generate program *index* and run the selected oracles over it."""
    program = generate(seed, index)
    pipeline, protection = plan_index(seed, index)
    record = IndexRecord(index, program.shape, pipeline, protection)
    stats: dict = {}
    calls = _oracle_calls(record, seed, fault_samples, stats, oracle == "all")
    for name, check in calls.items():
        if oracle not in ("all", name):
            continue
        # O7 needs phase-isolated programs (independent sections); the
        # phased stream is drawn separately so the default (seed, index)
        # programs stay pinned
        module = (generate_phased(seed, index).module if name == "o7"
                  else program.module)
        record.violations.extend(check(module))
    record.o3_landed = stats.get("landed", 0)
    record.o3_detected = stats.get("detected", 0)
    return record


def _run_index_chunk(
    seed: int,
    indices: Sequence[int],
    oracle: str,
    fault_samples: int,
) -> List[dict]:
    """Process-pool work unit: one chunk of program indices."""
    return [
        check_index(seed, index, oracle, fault_samples).to_dict()
        for index in indices
    ]


def failure_predicate(record: IndexRecord, seed: int, fault_samples: int):
    """A shrink predicate replaying exactly this record's failing oracles."""
    failing = {v.oracle for v in record.violations}
    calls = _oracle_calls(record, seed, fault_samples, {}, False)

    def predicate(module) -> bool:
        found = {v.oracle for name in failing for v in calls[name](module)}
        return found >= failing

    return predicate


def shrink_failure(
    record: IndexRecord,
    seed: int,
    fault_samples: int = DEFAULT_FAULT_SAMPLES,
):
    """Minimize the program behind a failing record; returns the module."""
    if any(v.oracle == "o7" for v in record.violations):
        # o7 checks the phased stream's program, not the default one
        module = generate_phased(seed, record.index).module
    else:
        module = generate(seed, record.index).module
    predicate = failure_predicate(record, seed, fault_samples)
    return shrink_module(module, predicate)


def render_corpus_entry(record: IndexRecord, seed: int, module) -> str:
    """A self-contained ``.ir`` corpus file with a provenance header."""
    lines = [
        f"; difftest counterexample: seed={seed} index={record.index} "
        f"shape={record.shape}",
        f"; pipeline: {' -> '.join(record.pipeline) or '(none)'}   "
        f"protection: {record.protection}",
    ]
    for violation in record.violations:
        lines.append(f"; [{violation.oracle}] {violation.detail}")
    lines.append(f"; shrunk to {instruction_count(module)} instructions")
    return "\n".join(lines) + "\n" + format_module(module)


def run_difftest(
    seed: int = 0,
    n: int = 100,
    oracle: str = "all",
    jobs: int = 1,
    fault_samples: int = DEFAULT_FAULT_SAMPLES,
    shrink: bool = False,
    corpus_dir: Optional[str] = None,
    chunk: int = DEFAULT_CHUNK,
) -> DifftestReport:
    """Check programs ``[0, n)`` of the stream rooted at *seed*.

    With ``shrink=True`` every failing program is delta-minimized and,
    when *corpus_dir* is set, written there as a commented ``.ir`` file
    ready for the corpus regression test to replay.
    """
    if oracle not in ORACLES:
        raise ValueError(f"unknown oracle {oracle!r}; choose from {ORACLES}")
    if n <= 0:
        raise ValueError("n must be positive")
    chunk = max(1, int(chunk))
    chunks = [
        (seed, tuple(range(start, min(start + chunk, n))), oracle, fault_samples)
        for start in range(0, n, chunk)
    ]
    raw = map_chunks(_run_index_chunk, chunks, jobs=jobs)
    records = sorted(
        (IndexRecord.from_dict(d) for part in raw for d in part),
        key=lambda r: r.index,
    )
    report = DifftestReport(seed, n, oracle, records)

    if oracle in ("all", "o3"):
        detected, landed = report.swift_liveness
        if landed >= 64 and detected == 0:
            report.extra_violations.append(Violation(
                "o3", f"swift checkers never fired across {landed} landed "
                      f"shadow flips campaign-wide — detection machinery "
                      f"looks inert", ("swift",)))

    if shrink and report.failing:
        import os

        for record in report.failing:
            module = shrink_failure(record, seed, fault_samples)
            if corpus_dir is None:
                continue
            os.makedirs(corpus_dir, exist_ok=True)
            path = os.path.join(corpus_dir, f"fail_s{seed}_i{record.index}.ir")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(render_corpus_entry(record, seed, module))
            report.shrunk_files.append(path)
    return report


def render_report(report: DifftestReport) -> str:
    """Deterministic text summary (no timing — that goes to stderr)."""
    shapes: dict = {}
    oracles_hit: dict = {}
    protected_pipelines = 0
    for record in report.records:
        shapes[record.shape] = shapes.get(record.shape, 0) + 1
        if record.pipeline and record.pipeline[-1] in PROTECTION_PASSES:
            protected_pipelines += 1
        for violation in record.violations:
            oracles_hit[violation.oracle] = oracles_hit.get(violation.oracle, 0) + 1

    lines = [
        f"difftest: seed={report.seed} n={report.n} oracle={report.oracle}",
        "shapes: " + " ".join(
            f"{shape}={shapes.get(shape, 0)}"
            for shape in sorted(shapes) or ["(none)"]
        ),
        f"pipelines ending in a protection: {protected_pipelines}/{report.n}",
    ]
    if report.oracle in ("all", "o3"):
        detected, landed = report.swift_liveness
        lines.append(f"swift shadow flips detected: {detected}/{landed} landed")
    lines.append(f"violations: {len(report.violations)}")
    for record in report.failing:
        for violation in record.violations:
            pipe = ",".join(violation.pipeline) or ",".join(record.pipeline)
            lines.append(
                f"  [{violation.oracle}] index={record.index} "
                f"shape={record.shape} pipeline={pipe}: {violation.detail}"
            )
    for violation in report.extra_violations:
        pipe = ",".join(violation.pipeline)
        lines.append(f"  [{violation.oracle}] campaign pipeline={pipe}: "
                     f"{violation.detail}")
    for path in report.shrunk_files:
        lines.append(f"  shrunk counterexample: {path}")
    return "\n".join(lines)
