"""Model-checking exploration as campaign cells.

The interleaving explorer (docs/MODELCHECK.md) runs whole scenarios
single-threaded; this module cuts an exploration batch along its
scenario axis into :class:`repro.harness.runner.CampaignCell`\\ s so mc
sweeps shard across the parallel campaign runner — and, through
:mod:`repro.harness.dist`, across worker machines — with checkpoints,
retry and the bit-identical merge the runner guarantees.  Exploration
itself is deterministic (the report serializes byte-identically for
equal budgets), so an mc cell satisfies the campaign determinism
contract out of the box.

``python -m repro.harness mc --campaign ...`` is the CLI entry point.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.harness.results import ExperimentTable
from repro.system import DEFAULT_TIME_SCALE

from .scenarios import MC_CYCLE_BUDGET, get_mc_scenario, run_mc_scenario


def run_mc_cell(
    scenario: str,
    max_executions: int = 64,
    max_depth: int = 48,
    max_branch: int = 3,
    scheme: str = "replay-queue",
    policy: str = "partition",
    time_scale: float = DEFAULT_TIME_SCALE,
    cycle_budget: float = MC_CYCLE_BUDGET,
) -> ExperimentTable:
    """Explore one scenario within budget; returns its result table.

    ``expectation-met`` is 1.0 when the scenario met its contract —
    every interleaving clean with consistent digests, or (negative
    controls) a counterexample found — so a campaign over mc cells
    fails loudly, per cell, exactly like the standalone subcommand.
    """
    spec = get_mc_scenario(scenario)
    report = run_mc_scenario(
        scenario,
        max_executions=max_executions,
        max_depth=max_depth,
        max_branch=max_branch,
        scheme=scheme,
        policy=policy,
        time_scale=time_scale,
        cycle_budget=cycle_budget,
    )
    if spec.expect_counterexample:
        met = bool(report.counterexamples)
    else:
        met = report.all_clean and report.digest_consistent()
    table = ExperimentTable(
        name="mc",
        description=(
            f"bounded schedule exploration, budget "
            f"{max_executions}x{max_depth}x{max_branch} "
            f"(scheme={scheme}, policy={policy})"
        ),
        columns=[
            "explored", "distinct", "counterexamples", "truncated",
            "expectation-met",
        ],
        notes=[
            "expectation-met 1.0 = all interleavings clean with "
            "consistent digests (or, for a negative control, a "
            "counterexample found)",
        ],
        show_geomean=False,
    )
    table.add_row(scenario, [
        float(report.explored),
        float(report.distinct_traces),
        float(len(report.counterexamples)),
        1.0 if report.truncated else 0.0,
        1.0 if met else 0.0,
    ])
    return table


def build_mc_cells(
    scenarios: Sequence[str],
    max_executions: int = 64,
    max_depth: int = 48,
    max_branch: int = 3,
    scheme: str = "replay-queue",
    policy: str = "partition",
    time_scale: float = DEFAULT_TIME_SCALE,
    cycle_budget: float = MC_CYCLE_BUDGET,
) -> List["CampaignCell"]:
    """The mc campaign spec: one cell per scenario, all merging into the
    ``mc`` group (row labels are scenario names, already distinct)."""
    from repro.harness.runner import CampaignCell

    cells: List[CampaignCell] = []
    for scenario in scenarios:
        cells.append(
            CampaignCell(
                key=f"mc/{scenario}",
                fn=run_mc_cell,
                kwargs=dict(
                    scenario=scenario,
                    max_executions=max_executions,
                    max_depth=max_depth,
                    max_branch=max_branch,
                    scheme=scheme,
                    policy=policy,
                    time_scale=time_scale,
                    cycle_budget=cycle_budget,
                ),
                group="mc",
            )
        )
    return cells
