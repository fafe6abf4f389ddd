"""Seeded chaos campaigns: fault injection as a harness experiment.

One campaign runs a workload under each requested scheme twice — once
clean, once with a seeded :class:`repro.chaos.ChaosEngine`, a watchdog
and the invariant sanitizer enabled — and checks the property the chaos
layer exists to enforce (docs/ROBUSTNESS.md): **injection perturbs
timing only**.  Page faults are the paper's own recovery mechanism, so a
run whose handler latencies are inflated, whose TLBs are shot down and
whose memory instructions are transiently squashed must still retire
every block and install the identical set of GPU page mappings.

Because the engine draws from a single seeded RNG consumed in simulator
call order, a campaign is bit-reproducible: same workload, scheme and
seed => identical injections, cycles and final state.

Exposed on the CLI as ``python -m repro.harness chaos <workload>`` — and,
through :func:`build_chaos_cells`, as a sharded soak campaign
(``chaos --workloads ... --seeds ...``) executed by the parallel
:class:`repro.harness.runner.CampaignRunner`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.chaos import ChaosConfig, ChaosEngine, Watchdog
from repro.system import (
    DEFAULT_TIME_SCALE, GPUConfig, GpuSimulator, architectural_digest,
)
from repro.workloads import get_workload

from .results import ExperimentTable

#: schemes a default campaign exercises (the paper's preemptible ones)
DEFAULT_CAMPAIGN_SCHEMES = ("wd-commit", "replay-queue", "operand-log")


def run_chaos_campaign(
    workload: str,
    seed: int = 0,
    schemes: Sequence[str] = DEFAULT_CAMPAIGN_SCHEMES,
    paging: str = "demand",
    interconnect: str = "nvlink",
    time_scale: float = DEFAULT_TIME_SCALE,
    intensity: float = 1.0,
    cycle_budget: Optional[float] = None,
    config: Optional[GPUConfig] = None,
) -> ExperimentTable:
    """Run the seeded chaos campaign; returns the result table.

    For every scheme the table reports the clean cycle count, the chaotic
    cycle count, the slowdown, the number of injections fired, and
    ``state-match`` — 1.0 iff the chaotic run's
    :func:`~repro.system.architectural_digest` equals the clean run's
    (the campaign's pass criterion).  ``intensity`` scales every hook's
    firing rate (see :meth:`repro.chaos.ChaosConfig.scaled`);
    ``cycle_budget`` overrides the watchdog's no-progress window.
    """
    wl = get_workload(workload)
    chaos_cfg = ChaosConfig(seed=seed).scaled(intensity)

    def run(scheme_name, chaos=None, watchdog=None):
        sim = GpuSimulator.for_workload(
            wl, scheme_name, time_scale=time_scale,
            interconnect=interconnect, config=config, paging=paging,
            chaos=chaos, watchdog=watchdog, sanitize=chaos is not None,
        )
        result = sim.run()
        state = architectural_digest(sim.address_space.page_state,
                                     result.sm_stats)
        return result, state

    table = ExperimentTable(
        name="chaos",
        description=(
            f"{workload} seed={seed} intensity={intensity:g}: "
            "fault injection must perturb timing only"
        ),
        columns=[
            "base-cycles", "chaos-cycles", "slowdown",
            "injections", "state-match",
        ],
        notes=[
            "state-match 1.0 = chaotic run retired every block with the "
            "identical final GPU page mappings and commit count",
        ],
        show_geomean=False,
    )
    for scheme_name in schemes:
        base, base_state = run(scheme_name)
        chaos = ChaosEngine(chaos_cfg)
        watchdog = (
            Watchdog(cycle_budget) if cycle_budget is not None else Watchdog()
        )
        chaotic, chaos_state = run(scheme_name, chaos, watchdog)
        match = base_state == chaos_state
        table.add_row(
            scheme_name,
            [
                base.cycles,
                chaotic.cycles,
                chaotic.cycles / base.cycles if base.cycles else 0.0,
                float(chaos.total_injections),
                1.0 if match else 0.0,
            ],
        )
    return table


def run_stream_chaos_campaign(
    scenario: str = "contention",
    seed: int = 0,
    policy: str = "partition",
    schemes: Sequence[str] = DEFAULT_CAMPAIGN_SCHEMES,
    interconnect: str = "nvlink",
    time_scale: float = DEFAULT_TIME_SCALE,
    intensity: float = 1.0,
    cycle_budget: Optional[float] = None,
) -> ExperimentTable:
    """The chaos campaign for a *multi-kernel stream* run: each scheme's
    scenario kernels are launched one per stream and synchronized clean,
    then again under a seeded engine with the watchdog + sanitizer armed.

    Same table shape and pass criterion as :func:`run_chaos_campaign`:
    injection must perturb timing only — the chaotic overlapped run must
    retire every block of every kernel with the identical final GPU page
    mappings and commit count, under either SM assignment ``policy``
    (``partition``/``interleave``)."""
    from repro.runtime import GpuDevice
    from repro.workloads import get_stream_scenario

    scn = get_stream_scenario(scenario)
    chaos_cfg = ChaosConfig(seed=seed).scaled(intensity)
    table = ExperimentTable(
        name="chaos",
        description=(
            f"streams-{scenario} policy={policy} seed={seed} "
            f"intensity={intensity:g}: fault injection must perturb "
            "timing only"
        ),
        columns=[
            "base-cycles", "chaos-cycles", "slowdown",
            "injections", "state-match",
        ],
        notes=[
            "state-match 1.0 = chaotic overlapped run retired every "
            "block with the identical final GPU page mappings and "
            "commit count",
        ],
        show_geomean=False,
    )

    def _overlapped(scheme_name: str, chaos, watchdog):
        device = GpuDevice(
            scheme=scheme_name, interconnect=interconnect,
            time_scale=time_scale,
        )
        for spec in scn.build(device):
            stream = device.create_stream()
            device.launch(
                spec.kernel, grid=spec.grid, block=spec.block,
                args=spec.args, stream=stream,
            )
        result = device.synchronize(
            policy=policy, chaos=chaos, watchdog=watchdog,
            sanitize=chaos is not None,
        )
        state = architectural_digest(device.aspace.page_state,
                                     result.sm_stats)
        return result, state

    for scheme_name in schemes:
        base, base_state = _overlapped(scheme_name, None, None)
        chaos = ChaosEngine(chaos_cfg)
        watchdog = (
            Watchdog(cycle_budget) if cycle_budget is not None else Watchdog()
        )
        chaotic, chaos_state = _overlapped(scheme_name, chaos, watchdog)
        match = base_state == chaos_state
        table.add_row(
            scheme_name,
            [
                base.cycles,
                chaotic.cycles,
                chaotic.cycles / base.cycles if base.cycles else 0.0,
                float(chaos.total_injections),
                1.0 if match else 0.0,
            ],
        )
    return table


def build_chaos_cells(
    workloads: Sequence[str],
    seeds: Sequence[int] = (0,),
    schemes: Sequence[str] = DEFAULT_CAMPAIGN_SCHEMES,
    paging: str = "demand",
    interconnect: str = "nvlink",
    time_scale: float = DEFAULT_TIME_SCALE,
    intensity: float = 1.0,
    cycle_budget: Optional[float] = None,
    stream_policies: Sequence[str] = (),
) -> List["CampaignCell"]:
    """The chaos-soak campaign spec: one cell per (workload, seed) pair,
    each running :func:`run_chaos_campaign` over every scheme.

    All cells share the ``chaos`` merge group; row labels get a
    ``<workload>/s<seed>/`` prefix so the per-scheme rows of different
    shards stay distinct in the merged table.  Each cell's kwargs carry
    its ``seed``, so the campaign runner's reseed-on-hang retry policy
    applies shard-locally.

    ``stream_policies`` adds a multi-kernel axis: one extra cell per
    (stream scenario, policy, seed) running
    :func:`run_stream_chaos_campaign` — the overlapped stream runs soak
    under the same injection engine as the single-kernel ones
    (``--stream-policies partition interleave`` on the CLI).
    """
    from .runner import CampaignCell

    cells: List[CampaignCell] = []
    for workload in workloads:
        for seed in seeds:
            cells.append(
                CampaignCell(
                    key=f"chaos/{workload}/s{seed}",
                    fn=run_chaos_campaign,
                    kwargs=dict(
                        workload=workload,
                        seed=seed,
                        schemes=tuple(schemes),
                        paging=paging,
                        interconnect=interconnect,
                        time_scale=time_scale,
                        intensity=intensity,
                        cycle_budget=cycle_budget,
                    ),
                    group="chaos",
                    row_prefix=f"{workload}/s{seed}/",
                )
            )
    if stream_policies:
        from repro.workloads import STREAM_SCENARIO_NAMES

        for scenario in STREAM_SCENARIO_NAMES:
            for policy in stream_policies:
                for seed in seeds:
                    cells.append(
                        CampaignCell(
                            key=f"chaos/streams-{scenario}/{policy}/s{seed}",
                            fn=run_stream_chaos_campaign,
                            kwargs=dict(
                                scenario=scenario,
                                seed=seed,
                                policy=policy,
                                schemes=tuple(schemes),
                                interconnect=interconnect,
                                time_scale=time_scale,
                                intensity=intensity,
                                cycle_budget=cycle_budget,
                            ),
                            group="chaos",
                            row_prefix=f"streams-{scenario}/{policy}"
                                       f"/s{seed}/",
                        )
                    )
    return cells
