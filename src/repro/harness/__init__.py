"""Experiment harness: one runner per paper table/figure + result tables,
plus crash isolation, seeded chaos campaigns and a fault-tolerant
parallel campaign runner with resumable checkpoints
(docs/ROBUSTNESS.md)."""

from .chaos_campaign import (
    DEFAULT_CAMPAIGN_SCHEMES,
    architectural_digest,
    build_chaos_cells,
    run_chaos_campaign,
    run_stream_chaos_campaign,
)
from .experiments import (
    ALL_EXPERIMENTS,
    DEFAULT_TIME_SCALE,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_scalability,
    run_table1,
    run_table2,
)
from .isolation import (
    ExperimentFailure,
    RetryPolicy,
    run_experiment_isolated,
)
from .results import ExperimentTable, geomean, merge_tables
from .streams import overlap_digest, run_streams, run_streams_scenario
from .runner import (
    CampaignCell,
    CampaignResult,
    CampaignRunner,
    CellOutcome,
    TRANSIENT_KINDS,
    build_all_cells,
)
from .tracing import TracedRun, run_traced

__all__ = [
    "TracedRun",
    "run_traced",
    "ALL_EXPERIMENTS",
    "CampaignCell",
    "CampaignResult",
    "CampaignRunner",
    "CellOutcome",
    "DEFAULT_CAMPAIGN_SCHEMES",
    "DEFAULT_TIME_SCALE",
    "ExperimentFailure",
    "RetryPolicy",
    "TRANSIENT_KINDS",
    "architectural_digest",
    "build_all_cells",
    "build_chaos_cells",
    "merge_tables",
    "run_chaos_campaign",
    "run_stream_chaos_campaign",
    "run_experiment_isolated",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_scalability",
    "run_streams",
    "run_streams_scenario",
    "overlap_digest",
    "run_table1",
    "run_table2",
    "ExperimentTable",
    "geomean",
]
