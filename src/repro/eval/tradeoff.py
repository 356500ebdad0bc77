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
from typing import Dict, List, Optional, Sequence

from ..core.config import RSkipConfig
from ..pipeline.registry import get_scheme
from ..workloads.base import Workload
from .fault_campaign import run_campaign
from .harness import Harness
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
    sfi_scale: float = 0.45,
    seed: int = 0,
    config: Optional[RSkipConfig] = None,
    fig7: Optional[Figure7Result] = None,
    jobs: int = 1,
) -> List[TradeoffRow]:
    """Average protection rate and slowdown per scheme (paper section 7.3)."""
    if fig7 is None:
        fig7 = figure7(workloads, schemes, scale=perf_scale, config=config)
    time_by_scheme = {
        avg.scheme: avg.norm_time for avg in fig7.averages()
    }

    harness_cache: Dict[str, Harness] = {}

    def profile_source(workload: Workload, ar: float):
        harness = harness_cache.get(workload.name)
        if harness is None:
            harness = Harness(workload, config=config, scale=sfi_scale, timing=False)
            harness_cache[workload.name] = harness
        return harness.profiles_for(ar)

    rows: List[TradeoffRow] = []
    for scheme in schemes:
        rates = []
        for workload in workloads:
            descriptor = get_scheme(scheme, config)
            profiles = None
            if descriptor.needs_training:
                profiles = profile_source(workload, descriptor.acceptable_range)
            campaign = run_campaign(
                workload, scheme, trials, seed=seed, scale=sfi_scale,
                config=config, profiles=profiles, jobs=jobs,
            )
            rates.append(campaign.protection_rate)
        rows.append(
            TradeoffRow(
                scheme=scheme,
                protection_rate=sum(rates) / len(rates) if rates else 0.0,
                slowdown=time_by_scheme.get(scheme, 0.0),
            )
        )
    return rows
