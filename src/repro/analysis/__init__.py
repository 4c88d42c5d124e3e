"""Post-emulation analysis: BU utilization, bottlenecks, sweeps, DSE.

These modules implement the paper's section-4 "Discussion" analyses (useful
period / waiting period of the BUs, congestion identification) and the
design-space-exploration workflow the emulator exists to support: *"the
emulator facilitates us to estimate performance aspects of application
mapped on a number of different platform configurations during the early
stages of the design process"*.
"""

from repro.analysis.bu_utilization import BUUtilization, bu_utilization
from repro.analysis.bottleneck import BottleneckReport, find_bottlenecks
from repro.analysis.sweep import (
    SweepPoint,
    frequency_sweep,
    package_size_sweep,
    segment_count_sweep,
)
from repro.analysis.dse import DesignPoint, explore_design_space
from repro.analysis.stats import summarize, Summary
from repro.analysis.power import PowerCoefficients, PowerReport, estimate_power
from repro.analysis.granularity import (
    merge_processes,
    split_process,
    suggest_rebalance,
)
from repro.analysis.campaign import Campaign, Variant, VariantResult
from repro.analysis.analytic import (
    AnalyticEstimate,
    ContentionDiagnosis,
    PathTiming,
    analytic_estimate,
    critical_path,
    diagnose_contention,
    path_timing,
    platform_clocks,
)
from repro.analysis.stochastic import (
    PlacementMove,
    QueueModel,
    StochasticEstimate,
    stochastic_estimate,
    suggest_placement_move,
)
from repro.analysis.latency import FlowLatency, LatencyReport, measure_latencies
from repro.analysis.reliability import (
    ReliabilityCurve,
    ReliabilityPoint,
    reliability_sweep,
)
from repro.analysis.executor import (
    BatchResult,
    CampaignExecutor,
    CheckpointJournal,
    ExecutorError,
    ExecutorInterrupted,
    ExecutorPolicy,
    ExecutorStats,
    JobError,
    JobFailure,
    canonical_digest,
    execute_batch,
)
from repro.analysis.visualize import activity_to_csv, psdf_to_dot, timeline_to_gantt

__all__ = [
    "BUUtilization",
    "bu_utilization",
    "BottleneckReport",
    "find_bottlenecks",
    "SweepPoint",
    "package_size_sweep",
    "segment_count_sweep",
    "DesignPoint",
    "explore_design_space",
    "summarize",
    "Summary",
    "PowerCoefficients",
    "PowerReport",
    "estimate_power",
    "merge_processes",
    "split_process",
    "suggest_rebalance",
    "Campaign",
    "Variant",
    "VariantResult",
    "ReliabilityCurve",
    "ReliabilityPoint",
    "reliability_sweep",
    "frequency_sweep",
    "AnalyticEstimate",
    "ContentionDiagnosis",
    "PathTiming",
    "analytic_estimate",
    "diagnose_contention",
    "critical_path",
    "path_timing",
    "platform_clocks",
    "PlacementMove",
    "QueueModel",
    "StochasticEstimate",
    "stochastic_estimate",
    "suggest_placement_move",
    "FlowLatency",
    "LatencyReport",
    "measure_latencies",
    "BatchResult",
    "CampaignExecutor",
    "CheckpointJournal",
    "ExecutorError",
    "ExecutorInterrupted",
    "ExecutorPolicy",
    "ExecutorStats",
    "JobError",
    "JobFailure",
    "canonical_digest",
    "execute_batch",
    "activity_to_csv",
    "psdf_to_dot",
    "timeline_to_gantt",
]
