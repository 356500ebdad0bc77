"""Per-scheme instruction-skip vulnerability table (O6 results).

Where :mod:`repro.eval.fault_campaign` *samples* fault outcomes, this
table *proves* them: for each bounded generated program, the O6
machinery enumerates every single-skip site named by the golden run's
segments and classifies it as detected / masked / sdc / trap / hang under every
protection scheme.  The aggregated rows are the layered-protection
story in numbers — how much of the skip surface each scheme closes, and
what residue only a hang-budget watchdog can catch.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..difftest.generator import generate
from ..difftest.oracles import SKIPMAP_SITE_CAP, SkipMap, skip_site_map
from ..pipeline.registry import protection_pass_schemes

#: Outcome columns, fixed order, matching ``SkipSite.outcome`` labels.
OUTCOMES = ("detected", "masked", "sdc", "trap", "hang")

#: None means the unprotected program; the axis is enumerated from the
#: scheme registry (one entry per protection pass family), so a newly
#: registered family shows up here without touching this module.
DEFAULT_SCHEMES: Tuple[Optional[str], ...] = protection_pass_schemes()


@dataclass
class SkipmapRow:
    """Aggregated skip outcomes of one scheme over a program set."""

    scheme: str
    total_sites: int = 0          # golden-run site totals, summed
    enumerated: int = 0           # sites actually injected
    exhaustive: bool = True       # every program fully enumerated
    tallies: Dict[str, int] = field(default_factory=dict)

    def add(self, smap: SkipMap) -> None:
        self.total_sites += smap.total_sites
        self.enumerated += len(smap.sites)
        self.exhaustive = self.exhaustive and smap.exhaustive
        for outcome, count in smap.tally().items():
            self.tallies[outcome] = self.tallies.get(outcome, 0) + count

    @property
    def sdc_rate(self) -> float:
        """Fraction of enumerated skip sites ending as silent corruption."""
        if not self.enumerated:
            return 0.0
        return self.tallies.get("sdc", 0) / self.enumerated


@dataclass
class SkipmapTable:
    seed: int
    programs: int
    burst_len: int
    rows: List[SkipmapRow]


def skip_vulnerability_table(
    seed: int = 0,
    programs: int = 3,
    schemes: Sequence[Optional[str]] = DEFAULT_SCHEMES,
    site_cap: int = SKIPMAP_SITE_CAP,
    burst_len: int = 1,
) -> SkipmapTable:
    """Build the per-scheme skip-vulnerability table over generated
    programs ``[0, programs)`` of the stream rooted at *seed*."""
    if programs <= 0:
        raise ValueError("programs must be positive")
    rows = []
    for scheme in schemes:
        row = SkipmapRow(scheme or "unsafe")
        for index in range(programs):
            module = generate(seed, index).module
            row.add(skip_site_map(
                module, scheme, site_cap=site_cap, burst_len=burst_len))
        rows.append(row)
    return SkipmapTable(seed, programs, burst_len, rows)


def render_skipmap(table: SkipmapTable) -> str:
    """Deterministic text rendering of the vulnerability table."""
    kind = ("single-skip" if table.burst_len == 1
            else f"{table.burst_len}-burst")
    lines = [
        f"skipmap: {kind} model checking over {table.programs} generated "
        f"program(s), seed={table.seed}",
        "scheme     sites  " + "".join(f"{o:>10}" for o in OUTCOMES)
        + "   sdc-rate",
    ]
    for row in table.rows:
        cov = "" if row.exhaustive else " (sampled)"
        lines.append(
            f"{row.scheme:<9}{row.enumerated:>7}  "
            + "".join(f"{row.tallies.get(o, 0):>10}" for o in OUTCOMES)
            + f"   {row.sdc_rate:7.1%}{cov}"
        )
    return "\n".join(lines)
