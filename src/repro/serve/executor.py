"""The serving data plane: one submission spec -> one simulated kernel.

:func:`execute_request` is a *module-level, picklable* pure function so
the asyncio service can run it through
:func:`repro.harness.isolation.run_experiment_isolated` (forked child,
wall-clock timeout, structured failure capture) exactly like any other
harness experiment — a tenant's wedged or crashing kernel can never
take the service process down.

A spec is a plain JSON-able dict (that is what makes it content-
addressable for the :class:`repro.serve.cache.ResultCache`):

``workload``        required; any registered workload name
``scheme``          exception-handling scheme (default ``replay-queue``)
``paging``          one of :data:`repro.system.PAGING_MODES`:
                    ``premapped`` | ``demand`` | ``demand-output`` |
                    ``demand-heap`` (default ``demand``)
``interconnect``    default ``nvlink``
``time_scale``      default :data:`DEFAULT_TIME_SCALE`
``seed``            chaos seed (default 0); bumped by reseed-retries
``chaos_intensity`` > 0 enables a seeded :class:`ChaosEngine` at that
                    intensity (``fault.storm`` et al.), plus sanitizer
``cycle_budget``    watchdog no-progress window override
``hang``            truthy => raise a deterministic
                    :class:`SimulationHang` *instead of simulating* —
                    the containment experiment's synthetic wedged
                    tenant, indistinguishable to the service from a
                    real watchdog trip

Every value is resolved before any trace work, so a malformed spec
fails without running the functional interpreter.

The result dict carries timing, the per-kernel fault tally that feeds
the tenant's fault budget, and a state digest
(:func:`repro.system.architectural_digest` content-hashed) so cache
hits are checkable against cold runs bit-for-bit.

A workload's dynamic trace depends only on its name, so the isolated
service's forked children run :func:`execute_handoff`, which hands the
generated trace back as a binary container and views a held one in
place of a functional run (docs/SERVING.md "Trace hand-off").
"""

from __future__ import annotations

import io
from typing import Dict, Optional, Tuple

from repro.chaos import (
    ChaosConfig, ChaosEngine, HangDiagnostic, SimulationHang, Watchdog,
)
from repro.functional.serialize import load_trace, save_trace
from repro.harness.hashing import content_hash
from repro.system import (
    DEFAULT_TIME_SCALE, GpuSimulator, architectural_digest,
)
from repro.workloads import get_workload

#: spec keys the executor understands (anything else is rejected so a
#: typo'd knob cannot silently produce — and cache — the wrong run)
SPEC_KEYS = frozenset((
    "workload", "scheme", "paging", "interconnect", "time_scale",
    "seed", "chaos_intensity", "cycle_budget", "hang",
))


def _synthetic_hang(spec: Dict) -> SimulationHang:
    budget = float(spec.get("cycle_budget") or 0.0)
    return SimulationHang(
        HangDiagnostic(
            cycle=budget,
            cycle_budget=budget,
            blocks_remaining=1,
            committed=0,
            warp_states={"injected": []},
        )
    )


def execute_request(spec: Dict, held: Optional[bytes] = None) -> Dict:
    """Run one submission; pure function of ``spec`` (module docstring).

    ``held`` is the workload's trace container as :func:`execute_handoff`
    returned it; when given, the run views it in place of a functional
    run, with the same result.  A container saved with another kernel
    than the workload's raises ``ValueError``.

    Raises ``SimulationHang`` on a watchdog trip (real or injected via
    ``hang``), ``KeyError``/``ValueError`` on malformed specs; any
    exception crosses the isolation boundary as a structured
    :class:`~repro.harness.isolation.ExperimentFailure`.
    """
    unknown = set(spec) - SPEC_KEYS
    if unknown:
        raise ValueError(
            f"unknown spec key(s) {sorted(unknown)}; "
            f"accepted: {sorted(SPEC_KEYS)}"
        )
    if spec.get("hang"):
        raise _synthetic_hang(spec)

    seed = int(spec.get("seed", 0))
    intensity = float(spec.get("chaos_intensity", 0.0))
    chaos = (
        ChaosEngine(ChaosConfig(seed=seed).scaled(intensity))
        if intensity > 0
        else None
    )
    budget = spec.get("cycle_budget")
    watchdog = Watchdog(budget) if budget is not None else Watchdog()
    trace = None
    if held is not None:
        def trace():
            # checked against the kernel the run simulates (which a
            # service child inherits built), not decoded from the header
            return load_trace(held, get_workload(spec["workload"]).kernel)[1]
    sim = GpuSimulator.for_workload(
        spec["workload"],
        spec.get("scheme", "replay-queue"),
        time_scale=float(spec.get("time_scale", DEFAULT_TIME_SCALE)),
        interconnect=spec.get("interconnect", "nvlink"),
        trace=trace,
        paging=spec.get("paging", "demand"),
        chaos=chaos,
        watchdog=watchdog,
        sanitize=chaos is not None,
    )
    result = sim.run()
    state = architectural_digest(sim.address_space.page_state,
                                 result.sm_stats)
    return {
        "workload": spec["workload"],
        "scheme": spec.get("scheme", "replay-queue"),
        "seed": seed,
        "cycles": result.cycles,
        "instructions": result.dynamic_instructions,
        "faults_raised": (
            result.fault_stats.faults_raised if result.fault_stats else 0
        ),
        "injections": chaos.total_injections if chaos is not None else 0,
        "state_digest": content_hash(state),
    }


def execute_handoff(
    spec: Dict, held: Optional[bytes] = None
) -> Tuple[Dict, Optional[bytes]]:
    """The isolated service's forked-child entry: ``(result, container)``.

    Without ``held`` the spec runs as :func:`execute_request` and
    ``container`` is the trace it generated (already cached in this
    process, so nothing is generated twice), saved for the service to
    hold.  With ``held`` the run views it and ``container`` is ``None``.
    A failing spec raises before any saving, so no container comes back
    for it.
    """
    result = execute_request(spec, held)
    if held is not None:
        return result, None
    wl = get_workload(spec["workload"])
    buf = io.BytesIO()
    save_trace(wl.trace(), wl.kernel, buf)
    return result, buf.getvalue()
