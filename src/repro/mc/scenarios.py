"""Model-checking scenarios: small workloads whose schedule space the
explorer enumerates (docs/MODELCHECK.md).

Each scenario stages a fresh :class:`repro.runtime.GpuDevice`, enqueues
its kernels on streams, and synchronizes under a forced choice trace
with the robustness layer armed (invariant sanitizer, watchdog) — one
:class:`~repro.mc.explorer.Execution` per trace.  Verification is
per-execution:

- the sanitizer must stay silent (``violation`` verdict otherwise), the
  watchdog must not trip (``hang``), the run loop must not wedge
  (``deadlock``);
- the **functional digest** (the data values the kernels produced) must
  be identical across every interleaving — the streams determinism
  contract (docs/CONCURRENCY.md) fixes data values at enqueue time, so
  any divergence is a real isolation bug;
- the **architectural digest** (GPU-mapped virtual pages, blocks
  retired, instructions committed — frame assignment excluded, as in
  the chaos campaign) must also be invariant: scheduling may only move
  *when* things happen.

Registry:

``contention``
    the two-stream tlb-thrash pair of :mod:`repro.workloads.multi`:
    steal-order and fault-service-order decisions under genuine
    cross-stream fault-queue contention;
``fault-storm``
    a single-stream tlb-thrash under schedule-gated chaos (resolution
    delays, phantom-fault storms, packet reordering): every injection
    site is a decision point, magnitudes are deterministic maxima;
``fault-storm-bug``
    the negative control: identical to ``fault-storm`` but the
    resolution delay is *negative* (a completion signal from the past).
    Any trace that fires the injection schedules replay events before
    the heap's last fired time — the sanitizer's event-heap regression
    check trips, and the explorer must minimize it to a one-hot trace.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos import (
    ChaosConfig,
    ChaosEngine,
    InvariantViolation,
    SimulationHang,
    Watchdog,
)
from repro.runtime import DevicePointer, GpuDevice
from repro.system import (
    DEFAULT_TIME_SCALE, DeadlockError, architectural_digest,
)

from .explorer import CLEAN, Execution, Explorer, ExplorationReport
from .schedule import ScheduleControl

#: watchdog budget per execution, in cycles (scenarios are small; a
#: whole budget without progress means a schedule choice wedged the run)
MC_CYCLE_BUDGET = 500_000.0

#: chaos rates for the fault-storm scenarios: only the schedule-gated
#: hooks are armed, so the RNG is never consulted — the choice trace
#: alone describes the injection pattern
_STORM_RATES = dict(
    cpu_latency_rate=0.0,
    link_latency_rate=0.0,
    resolve_delay_rate=1.0,
    storm_rate=1.0,
    tlb_miss_rate=0.0,
    shootdown_rate=0.0,
    squash_rate=0.0,
    mshr_exhaustion_rate=0.0,
    refresh_storm_rate=0.0,
    pkt_drop_rate=0.0,
    pkt_reorder_rate=1.0,
    alloc_fail_rate=0.0,
    stream_teardown_rate=0.0,
)


@dataclass(frozen=True)
class McScenario:
    """One explorable scenario: a builder staging launch specs on a
    device, plus the chaos config its executions run under (None = no
    chaos, scheduling decisions only)."""

    name: str
    description: str
    #: stages buffers/kernels on the device; returns the launch specs
    #: (each spec launched on its own stream, spec order = stream order)
    build: Callable[[GpuDevice], List]
    chaos_config: Optional[ChaosConfig] = None
    #: True when a counterexample is the *expected* outcome (negative
    #: control — the mc harness does not fail the scenario on it)
    expect_counterexample: bool = False


def _build_contention(device: GpuDevice) -> List:
    from repro.workloads import get_stream_scenario

    return get_stream_scenario("contention").build(device)


def _build_storm(device: GpuDevice) -> List:
    """A single fault-bound kernel on one stream: no steal decisions, so
    the trace is pure fault-service-order + chaos-injection choices."""
    from repro.workloads.micro import MICRO
    from repro.workloads.multi import StreamKernelSpec

    wl = MICRO.fresh("tlb-thrash")
    span = (wl.iters + 1) * wl.num_warps * wl.PAGE_STRIDE
    src = device.malloc_managed(span, name="storm-in")
    out = device.malloc_managed(wl.num_threads * 4, name="storm-out")
    device.fill(src, [float(i % 97) for i in range(span // 4)])
    return [
        StreamKernelSpec(
            kernel=wl.kernel, grid=wl.grid_dim, block=wl.block_dim,
            args=(src, out),
        )
    ]


MC_SCENARIOS: Dict[str, McScenario] = {
    s.name: s
    for s in (
        McScenario(
            name="contention",
            description=(
                "two-stream tlb-thrash contention: steal order and "
                "fault service order explored, no chaos"
            ),
            build=_build_contention,
        ),
        McScenario(
            name="fault-storm",
            description=(
                "single-stream tlb-thrash under schedule-gated chaos: "
                "resolution delays, phantom storms and packet reordering "
                "as decision points"
            ),
            build=_build_storm,
            chaos_config=ChaosConfig(seed=0, **_STORM_RATES),
        ),
        McScenario(
            name="fault-storm-bug",
            description=(
                "negative control: a negative resolution delay sends "
                "completion signals into the past — firing the injection "
                "must trip the event-heap regression invariant"
            ),
            build=_build_storm,
            chaos_config=ChaosConfig(
                seed=0, resolve_delay_max_cycles=-250_000.0, **_STORM_RATES
            ),
            expect_counterexample=True,
        ),
    )
}

#: scenarios the ``mc`` subcommand runs by default (the negative control
#: is opt-in: its counterexample is the expected outcome, not a finding)
DEFAULT_MC_SCENARIOS: Tuple[str, ...] = ("contention", "fault-storm")


def get_mc_scenario(name: str) -> McScenario:
    try:
        return MC_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown mc scenario {name!r}; known: {sorted(MC_SCENARIOS)}"
        ) from None


# ----------------------------------------------------------------------
# one execution = one forced trace
# ----------------------------------------------------------------------


def _first_line(exc: BaseException) -> str:
    return str(exc).splitlines()[0] if str(exc) else type(exc).__name__


def _functional_digest(device: GpuDevice, specs) -> str:
    """sha256 over every device-pointer argument's contents after the
    run.  Functional execution is fixed at enqueue time (the streams
    determinism contract), so every interleaving must reproduce this."""
    payload = []
    for spec in specs:
        for arg in spec.args:
            if isinstance(arg, DevicePointer):
                payload.append(
                    [arg.name, device.read(arg, arg.nbytes // 4)]
                )
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def execute_trace(
    scenario: McScenario,
    trace: Tuple[int, ...] = (),
    scheme: str = "replay-queue",
    policy: str = "partition",
    time_scale: float = DEFAULT_TIME_SCALE,
    cycle_budget: float = MC_CYCLE_BUDGET,
) -> Execution:
    """Run one scenario execution under a forced choice trace.

    Builds a fresh device (executions share nothing), enqueues each spec
    on its own stream, and synchronizes with the sanitizer + watchdog
    armed and the :class:`~repro.mc.schedule.ScheduleControl` threaded
    through the simulator.  Never raises for scenario failures — the
    verdict carries them (``violation``/``hang``/``deadlock``)."""
    device = GpuDevice(scheme=scheme, time_scale=time_scale)
    specs = scenario.build(device)
    for spec in specs:
        stream = device.create_stream()
        device.launch(
            spec.kernel, grid=spec.grid, block=spec.block, args=spec.args,
            stream=stream,
        )
    control = ScheduleControl(trace)
    chaos = (
        ChaosEngine(scenario.chaos_config)
        if scenario.chaos_config is not None
        else None
    )
    verdict, error, result = CLEAN, None, None
    try:
        result = device.synchronize(
            policy=policy,
            chaos=chaos,
            watchdog=Watchdog(cycle_budget),
            sanitize=True,
            schedule=control,
        )
    except InvariantViolation as exc:
        verdict, error = "violation", _first_line(exc)
    except SimulationHang as exc:
        verdict, error = "hang", _first_line(exc)
    except DeadlockError as exc:
        verdict, error = "deadlock", _first_line(exc)
    execution = Execution(
        trace=control.trace(),
        points=list(control.log),
        verdict=verdict,
        error=error,
    )
    if result is not None:
        execution.functional_digest = _functional_digest(device, specs)
        state = architectural_digest(device.aspace.page_state,
                                     result.sm_stats)
        execution.arch_digest = hashlib.sha256(
            json.dumps(state, sort_keys=True).encode()
        ).hexdigest()
        execution.observables = {
            "makespan": result.cycles,
            "stolen_blocks": float(result.stolen_blocks),
            "faults_raised": float(result.fault_stats.faults_raised),
            "injections": float(
                chaos.total_injections if chaos is not None else 0
            ),
        }
    return execution


def run_mc_scenario(
    name: str,
    max_executions: int = 64,
    max_depth: int = 48,
    max_branch: int = 3,
    scheme: str = "replay-queue",
    policy: str = "partition",
    time_scale: float = DEFAULT_TIME_SCALE,
    cycle_budget: float = MC_CYCLE_BUDGET,
    counters=None,
) -> ExplorationReport:
    """Explore one scenario's schedule space within budget; returns the
    full :class:`~repro.mc.explorer.ExplorationReport`."""
    scenario = get_mc_scenario(name)

    def run(trace: Tuple[int, ...]) -> Execution:
        return execute_trace(
            scenario, trace, scheme=scheme, policy=policy,
            time_scale=time_scale, cycle_budget=cycle_budget,
        )

    explorer = Explorer(
        run,
        max_executions=max_executions,
        max_depth=max_depth,
        max_branch=max_branch,
        counters=counters,
    )
    return explorer.explore(scenario_name=name)


def replay_trace(
    name: str,
    trace: Tuple[int, ...],
    scheme: str = "replay-queue",
    policy: str = "partition",
    time_scale: float = DEFAULT_TIME_SCALE,
    cycle_budget: float = MC_CYCLE_BUDGET,
) -> Execution:
    """Replay one recorded choice trace of a scenario (the
    counterexample debugging entry point, ``mc --replay``)."""
    return execute_trace(
        get_mc_scenario(name), tuple(trace), scheme=scheme, policy=policy,
        time_scale=time_scale, cycle_budget=cycle_budget,
    )
