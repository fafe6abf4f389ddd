"""Preemption-latency analysis (paper Section 2.4).

"A low context switch latency is the key to achieve good fairness and
responsiveness in GPU multiprogramming ... the need for all the in-flight
faults to be serviced before the context switch can happen increases the
latency of context switching significantly."

This module measures exactly that: a preemption request (e.g. the OS wants
to schedule another process) arrives at time T while a kernel is running
under demand paging.  A *non-preemptible* pipeline (baseline stall-on-fault)
must wait until every in-flight fault resolves before the SM can be drained
and saved; a preemptible pipeline squashes the faulted instructions (they
are replayable from the saved context) and only drains the normal in-flight
work.

The analysis piggybacks on the timing simulator: we interrupt a running
simulation at the request time and compute, per SM, when its state could be
saved off-chip under each policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.schemes import PipelineScheme

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.system.gpu import GpuSimulator


@dataclass
class PreemptionReport:
    """Per-SM and aggregate context-switch latency at one request time."""

    request_time: float
    #: per-SM time at which the SM could begin saving state (drain done)
    drain_ready: List[float] = field(default_factory=list)
    #: per-SM context bytes that would be saved
    context_bytes: List[int] = field(default_factory=list)
    preemptible: bool = True

    @property
    def latencies(self) -> List[float]:
        return [t - self.request_time for t in self.drain_ready]

    @property
    def worst_latency(self) -> float:
        return max(self.latencies) if self.latencies else 0.0

    @property
    def mean_latency(self) -> float:
        lat = self.latencies
        return sum(lat) / len(lat) if lat else 0.0


def measure_preemption_latency(
    sim: "GpuSimulator", request_time: float
) -> Dict[str, PreemptionReport]:
    """Run ``sim`` until ``request_time``, then compute the context-switch
    latency under both policies.

    Returns reports keyed by ``"preemptible"`` (faulted instructions are
    squashed and replayed later — drain covers only normal in-flight work)
    and ``"stall-on-fault"`` (every parked fault must resolve first).

    The simulator is consumed: it is advanced to ``request_time`` and left
    there.
    """
    sim._launch_initial()
    sim._drive(math.inf, stop=request_time)

    preemptible = PreemptionReport(request_time=request_time, preemptible=True)
    stalled = PreemptionReport(request_time=request_time, preemptible=False)

    for sm in sim.sms:
        drain_normal = request_time
        drain_faulted = request_time
        ctx = 0
        for block in sm.blocks:
            # normal in-flight work: the block's scheduled commits
            drain_normal = max(drain_normal, min(block.drain_time, 1e30))
            ctx += sm.context_bytes(block)
            # parked faulted instructions: resolution + replay completion
            for rec in block.faulted_inflight:
                commit_ev = rec[2]
                if not commit_ev.cancelled and not commit_ev.fired:
                    drain_faulted = max(drain_faulted, commit_ev.time)
        preemptible.drain_ready.append(max(drain_normal, request_time))
        preemptible.context_bytes.append(ctx)
        stalled.drain_ready.append(
            max(drain_normal, drain_faulted, request_time)
        )
        stalled.context_bytes.append(ctx)

    return {"preemptible": preemptible, "stall-on-fault": stalled}


def preemption_latency_experiment(
    workload,
    scheme: PipelineScheme,
    request_fraction: float = 0.3,
    **kwargs,
) -> Dict[str, float]:
    """Convenience wrapper: run ``workload`` under demand paging, request
    preemption part-way through, and report worst-case latencies.
    ``kwargs`` (``time_scale``, ``interconnect``, ``config``, ...) go to
    :meth:`~repro.system.GpuSimulator.for_workload`.

    Returns ``{"preemptible": cycles, "stall-on-fault": cycles,
    "request_time": t}``.
    """
    from repro.system.gpu import GpuSimulator

    def build() -> "GpuSimulator":
        return GpuSimulator.for_workload(workload, scheme, paging="demand",
                                         **kwargs)

    total = build().run().cycles
    sim = build()
    request_time = total * request_fraction
    reports = measure_preemption_latency(sim, request_time)
    sim._release()  # stopped mid-run: unwire it so refcounting frees it
    return {
        "preemptible": reports["preemptible"].worst_latency,
        "stall-on-fault": reports["stall-on-fault"].worst_latency,
        "request_time": request_time,
    }
