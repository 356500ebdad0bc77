"""Section 7.3: the rationality of the acceptable range.

Combines the performance study (normalized execution time) with the
reliability study (protection rate) into the paper's protection-vs-
slowdown tradeoff table.  The default scheme axis is
:data:`~repro.eval.perf.PERF_SCHEMES`, which is enumerated from the
scheme registry — registered protocol families (REPLAY<n>, CKPT<i>)
get tradeoff rows with no per-scheme code here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.config import RSkipConfig
from ..pipeline.registry import canonical_scheme
from ..workloads.base import Workload
from .fault_campaign import MAX_INJECTION_SCALE, figure9
from .harness import campaign_profiles
from .perf import Figure7Result, figure7, PERF_SCHEMES


@dataclass
class TradeoffRow:
    scheme: str
    protection_rate: float
    slowdown: float


def section73(
    workloads: Sequence[Workload],
    schemes: Sequence[str] = PERF_SCHEMES,
    trials: int = 60,
    perf_scale: float = 0.6,
    sfi_scale: float = MAX_INJECTION_SCALE,
    seed: int = 0,
    config: Optional[RSkipConfig] = None,
    fig7: Optional[Figure7Result] = None,
    jobs: int = 1,
) -> List[TradeoffRow]:
    """Average protection rate and slowdown per scheme (paper section 7.3).

    The protection rates come from one :func:`figure9` reliability study
    over every (workload, scheme) pair, so ``jobs > 1`` shards all of
    them together."""
    if fig7 is None:
        fig7 = figure7(workloads, schemes, scale=perf_scale, config=config)
    time_by_scheme = {
        avg.scheme: avg.norm_time for avg in fig7.averages()
    }
    campaigns = figure9(
        workloads, schemes, trials, seed=seed, scale=sfi_scale, config=config,
        profile_source=campaign_profiles(sfi_scale, config), jobs=jobs,
    )

    rows: List[TradeoffRow] = []
    for scheme in schemes:
        name = canonical_scheme(scheme, config)
        rates = [campaigns[(w.name, name)].protection_rate for w in workloads]
        rows.append(
            TradeoffRow(
                scheme=scheme,
                protection_rate=sum(rates) / len(rates) if rates else 0.0,
                slowdown=time_by_scheme.get(scheme, 0.0),
            )
        )
    return rows
