"""Traced runs: one simulation with full telemetry, written to disk.

The harness side of the observability story (docs/OBSERVABILITY.md): build
a simulator for any workload/scheme/paging combination with an enabled
:class:`repro.telemetry.Telemetry`, run it, and write two artifacts next to
the experiment output —

``<out>/<workload>-<scheme>.trace.json``
    a Chrome ``trace_event`` file; open it in ``chrome://tracing`` or
    https://ui.perfetto.dev to see per-SM issue/commit activity, fault
    raise/resolve spans, squash/replay points and block switches;
``<out>/<workload>-<scheme>.counters.json``
    the hierarchical counter dump (flat values, rollup tree, sampled
    time series).

Exposed on the CLI as ``python -m repro.harness trace <workload>``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional

from repro.system import (
    DEFAULT_TIME_SCALE, GPUConfig, GpuSimulator, SimResult,
)
from repro.telemetry import Telemetry

from .results import ExperimentTable


@dataclass
class TracedRun:
    """Everything a traced simulation produced, in one place."""

    workload: str
    scheme: str
    result: SimResult
    telemetry: Telemetry
    paths: Dict[str, str]

    def table(self) -> ExperimentTable:
        """A one-column summary table (the harness's common currency) with
        the written files attached as artifacts."""
        tracer = self.telemetry.tracer
        hist = tracer.names()
        table = ExperimentTable(
            name="trace",
            description=(
                f"{self.workload} under {self.scheme}: telemetry summary"
            ),
            columns=["value"],
            artifacts=dict(self.paths),
            show_geomean=False,
        )
        table.add_row("cycles", [self.result.cycles])
        table.add_row("dynamic_insts", [self.result.dynamic_instructions])
        table.add_row("events_recorded", [tracer.recorded])
        table.add_row("events_dropped", [tracer.dropped])
        for name in sorted(hist):
            table.add_row(f"ev:{name}", [hist[name]])
        return table


def run_traced(
    workload: str,
    scheme: str = "replay-queue",
    paging: str = "demand",
    interconnect: str = "nvlink",
    local_handling: bool = False,
    block_switching: bool = False,
    ideal_switch: bool = False,
    time_scale: float = DEFAULT_TIME_SCALE,
    out_dir: str = "traces",
    capacity: int = 1 << 16,
    sample_interval: float = 1000.0,
    config: Optional[GPUConfig] = None,
) -> TracedRun:
    """Run ``workload`` under ``scheme`` with telemetry enabled and write
    the Chrome trace + counter dump into ``out_dir``; returns the
    :class:`TracedRun` (telemetry object included, for programmatic use)."""
    tel = Telemetry(capacity=capacity, sample_interval=sample_interval)
    tel.annotate(workload=workload, interconnect=interconnect,
                 time_scale=time_scale)
    sim = GpuSimulator.for_workload(
        workload,
        scheme,
        time_scale=time_scale,
        interconnect=interconnect,
        config=config,
        paging=paging,
        local_handling=local_handling,
        block_switching=block_switching,
        ideal_switch=ideal_switch,
        telemetry=tel,
    )
    result = sim.run()
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-{sim.scheme.name}")
    paths = tel.write(stem)
    return TracedRun(
        workload=workload,
        scheme=sim.scheme.name,
        result=result,
        telemetry=tel,
        paths=paths,
    )
