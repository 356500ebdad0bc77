"""Static section partition of a campaign's injection region (FastFlip).

Incremental campaigns (``repro.eval.incremental``) reuse per-section
injection tallies across program edits.  The unit of reuse is a
**section**: a group of static program locations whose in-region dynamic
steps form its step window.  Two section kinds cover the region:

* **loop sections** — the protected main function's region blocks,
  grouped by the *innermost* natural loop of the original program that
  contains their provenance label.  The paper's protection model is
  loop-granular, so this is the granularity at which edits happen and
  reuse pays off (an edit to one inner loop leaves its siblings' tallies
  valid).
* **function sections** — every function the region names in full
  (pattern callees, RSkip outlined bodies): the whole function is one
  section.

Any region step of the golden run that no section claims falls into
a **residual** section fingerprinted over the whole module — it can only
be reused when nothing at all changed, which keeps the partition total
(no gaps) without ever reusing a tally whose provenance is unclear.

A section's **fingerprint** hashes (via the pipeline cache's
:func:`~repro.pipeline.cache.artifact_key`) the printed IR of its own
blocks or function plus the printed IR of every module function
statically reachable from them — so an edit anywhere in a section's call
closure invalidates it, while edits elsewhere leave it byte-stable.  The
fingerprint deliberately excludes the *rest* of the enclosing function:
cross-section data flow is the documented approximation of compositional
reuse (see DESIGN.md §10); oracle O7 pins the cases where sections are
genuinely independent.

Step windows come from the campaign's one golden run: the segments its
capture records (:meth:`~repro.runtime.prefix.GoldenPrefix.windows`)
name the block every region step executes, and consecutive steps of one
section merge into run-length ``(global_start, length)`` windows.  Every
region step lies in exactly one window, so sections cover the region
exactly, with no gaps and no overlaps.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.loops import find_loops
from ..ir.function import Function
from ..ir.module import Module
from ..ir.printer import format_function, format_instr, format_module
from ..pipeline.cache import artifact_key
from ..workloads.base import Workload
from .fault_campaign import CampaignContext
from .schemes import PreparedProgram

#: Name of the catch-all section for steps no static section claims.
RESIDUAL_SECTION = "residual"


@dataclass
class Section:
    """One reusable unit of the injection region.

    ``segments`` are run-length ``(global_start, length)`` windows of the
    region's dynamic step range, ascending and non-overlapping;
    ``step_count`` is their total length.  ``global_step`` maps a
    section-local step (what a per-section :func:`random_plan` draws) to
    the global region step a :class:`FaultPlan` triggers on.
    """

    name: str
    fingerprint: str
    step_count: int = 0
    segments: List[Tuple[int, int]] = field(default_factory=list)
    _cum: List[int] = field(default_factory=list, repr=False)

    def global_step(self, local: int) -> int:
        if not 0 <= local < self.step_count:
            raise IndexError(
                f"section {self.name}: local step {local} outside "
                f"[0, {self.step_count})")
        if len(self._cum) != len(self.segments):
            cum, total = [], 0
            for _start, length in self.segments:
                cum.append(total)
                total += length
            self._cum = cum
        k = bisect.bisect_right(self._cum, local) - 1
        start, _length = self.segments[k]
        return start + (local - self._cum[k])

    def _extend(self, start: int, length: int) -> None:
        if self.segments and sum(self.segments[-1]) == start:
            prev_start, prev_len = self.segments[-1]
            self.segments[-1] = (prev_start, prev_len + length)
        else:
            self.segments.append((start, length))
        self.step_count += length
        self._cum = []


@dataclass
class SectionPartition:
    """All sections of one (prepared program, input) campaign, ordered by
    first dynamic appearance, covering ``[0, region_steps)`` exactly."""

    sections: List[Section]
    region_steps: int



def _block_text(func: Function, label: str) -> str:
    lines = [f"{label}:"]
    for instr in func.blocks[label].instrs:
        lines.append(format_instr(instr))
    return "\n".join(lines)


def _instr_callees(func: Function, labels) -> List[str]:
    out = []
    for label in labels:
        for instr in func.blocks[label].instrs:
            if instr.callee is not None:
                out.append(instr.callee)
    return out


def _closure_texts(module: Module, seeds: List[str]) -> Tuple[List[str], List[str]]:
    """Printed IR of every module function reachable through calls from
    *seeds*, plus the sorted names of non-module callees (intrinsics —
    their semantics are runtime-fixed, so the name alone is the
    fingerprint contribution)."""
    funcs: Set[str] = set()
    intrins: Set[str] = set()
    work = list(seeds)
    while work:
        name = work.pop()
        if name in funcs or name in intrins:
            continue
        if name not in module.functions:
            intrins.add(name)
            continue
        funcs.add(name)
        func = module.get_function(name)
        work.extend(_instr_callees(func, func.block_order()))
    texts = [format_function(module.get_function(n)) for n in sorted(funcs)]
    return texts, sorted(intrins)


def loop_section_fingerprint(
    module: Module, main: str, labels: List[str], orig_labels,
) -> str:
    """Fingerprint of a loop section: its own protected blocks (in layout
    order) + original block-label set + static call closure."""
    func = module.get_function(main)
    texts = [_block_text(func, label) for label in labels]
    closure, intrins = _closure_texts(module, _instr_callees(func, labels))
    return artifact_key(
        "section", "loop", main, sorted(orig_labels), texts, closure, intrins)


def function_section_fingerprint(module: Module, fname: str) -> str:
    """Fingerprint of a function section: the whole printed function +
    its static call closure."""
    func = module.get_function(fname)
    closure, intrins = _closure_texts(
        module, _instr_callees(func, func.block_order()))
    return artifact_key(
        "section", "func", fname, format_function(func), closure, intrins)


def _loop_label_owners(
    original_module: Module, main: str, targets,
) -> Dict[str, str]:
    """original block label -> header of its innermost containing loop,
    over every detected target loop."""
    orig_main = original_module.get_function(main)
    loops = find_loops(orig_main)
    owners: Dict[str, str] = {}
    for target in targets:
        tblocks = target.loop.blocks
        inner = [lp for lp in loops if lp.blocks <= tblocks]
        for label in tblocks:
            best = None
            for lp in inner:
                if label in lp.blocks and (
                        best is None or len(lp.blocks) < len(best.blocks)):
                    best = lp
            owners[label] = best.header if best is not None else target.loop.header
    return owners


def partition_sections(
    prepared: PreparedProgram,
    workload: Workload,
    ctx: CampaignContext,
    original_module: Optional[Module] = None,
) -> SectionPartition:
    """Partition the injection region of one campaign into sections.

    Static structure (owners, fingerprints) comes from the prepared
    module; dynamic step windows come from the segments of the golden
    run *ctx* captured.
    """
    module = prepared.module
    region = ctx.region
    main = prepared.main
    main_func = module.get_function(main)
    provenance = main_func.attrs.get("provenance", {})

    owners: Dict[Tuple[str, str], str] = {}
    sections: Dict[str, Section] = {}

    if prepared.original_targets:
        if original_module is None:
            original_module = workload.build()
        label_owner = _loop_label_owners(
            original_module, main, prepared.original_targets)
        group_labels: Dict[str, List[str]] = {}
        group_origs: Dict[str, Set[str]] = {}
        for label in main_func.block_order():
            orig = provenance.get(label, label)
            header = label_owner.get(orig)
            if header is None:
                continue
            name = f"{main}:{header}"
            owners[(main, label)] = name
            group_labels.setdefault(name, []).append(label)
            group_origs.setdefault(name, set()).add(orig)
        for name, labels in group_labels.items():
            sections[name] = Section(name, loop_section_fingerprint(
                module, main, labels, group_origs[name]))

    for fname in sorted(region.funcs):
        if fname not in module.functions:
            continue
        name = f"@{fname}"
        sections[name] = Section(name, function_section_fingerprint(module, fname))
        for label in module.get_function(fname).block_order():
            owners[(fname, label)] = name

    residual: Optional[Section] = None
    for func, label, _index, start, length in ctx.prefix.windows():
        name = owners.get((func, label))
        if name is None:
            if residual is None:
                residual = Section(
                    RESIDUAL_SECTION,
                    artifact_key("section", RESIDUAL_SECTION,
                                 format_module(module)))
                sections[RESIDUAL_SECTION] = residual
            section = residual
        else:
            section = sections[name]
        section._extend(start, length)

    ordered = [s for s in sections.values() if s.step_count > 0]
    ordered.sort(key=lambda s: s.segments[0][0])
    return SectionPartition(ordered, ctx.region_steps)
