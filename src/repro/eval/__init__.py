"""repro.eval — the paper's evaluation: schemes, harness, performance
figures (7, 8a, 8b), the SFI reliability study (9a, 9b), the motivation
study (2), the AR tradeoff (section 7.3) and Table 1."""
from .schemes import (
    PAPER_SCHEMES,
    PreparedProgram,
    SWIFT,
    SWIFT_R,
    UNSAFE,
    fault_region,
    prepare,
    rskip_label,
)
from .harness import Harness, RunRecord, campaign_profiles
from .perf import (
    Figure7Result,
    Figure8aRow,
    Figure8bRow,
    PERF_SCHEMES,
    SchemeAverages,
    figure7,
    figure8a,
    figure8b,
)
from .fault_campaign import (
    CampaignContext,
    CampaignResult,
    campaign_context,
    campaign_input,
    figure9,
    injection_scale,
    run_campaign,
    run_plans,
    run_trial_block,
    trial_seed,
)
from .campaign_engine import (
    CampaignTask,
    CheckpointBusyError,
    CheckpointLock,
    CheckpointMismatchError,
    eta_printer,
    run_campaign_parallel,
    run_campaigns,
)
from .sections import Section, SectionPartition, partition_sections
from .incremental import (
    SectionReport,
    SectionStore,
    StratifiedResult,
    campaign_store_dir,
    run_campaign_stratified,
    section_store_key,
    stratified_allocation,
)
from .motivation import MotivationRow, figure2, loop_instruction_share
from .tradeoff import TradeoffRow, section73
from .table1 import Table1Row, table1
from .costratio import CostRatio, cost_ratio
from .scaling import ScalingRow, render_scaling, scaling_study
from .vulnerability import VulnerabilityEstimate, occupancy_estimate
from .sweeps import SweepPoint, ar_sweep, render_sweep
from . import charts, reporting

__all__ = [
    "PAPER_SCHEMES", "PreparedProgram", "SWIFT", "SWIFT_R", "UNSAFE",
    "fault_region", "prepare", "rskip_label",
    "Harness", "RunRecord", "campaign_profiles",
    "Figure7Result", "Figure8aRow", "Figure8bRow", "PERF_SCHEMES",
    "SchemeAverages", "figure7", "figure8a", "figure8b",
    "CampaignContext", "CampaignResult", "campaign_context", "campaign_input",
    "figure9", "injection_scale", "run_campaign", "run_plans",
    "run_trial_block", "trial_seed",
    "CampaignTask", "eta_printer", "run_campaign_parallel", "run_campaigns",
    "Section", "SectionPartition", "partition_sections",
    "SectionReport", "SectionStore", "StratifiedResult",
    "campaign_store_dir", "run_campaign_stratified", "section_store_key",
    "stratified_allocation",
    "MotivationRow", "figure2", "loop_instruction_share",
    "TradeoffRow", "section73",
    "Table1Row", "table1",
    "CostRatio", "cost_ratio",
    "ScalingRow", "render_scaling", "scaling_study",
    "VulnerabilityEstimate", "occupancy_estimate",
    "SweepPoint", "ar_sweep", "render_sweep",
    "charts", "reporting",
]
