"""Top-level GPU timing simulator.

Assembles the SMs, memory subsystem, MMU, fault controller and thread-block
scheduler, and runs the cycle/event loop.  One :class:`MultiKernelSimulator`
executes one or more kernel launches (each a
:class:`~repro.functional.trace.KernelTrace` enqueued on a stream) under a
chosen pipeline scheme and paging mode.  :class:`GpuSimulator` is its
one-launch case: one kernel on stream 0, reported as a :class:`SimResult`.

Paging modes
------------
``premapped``     every segment page GPU-mapped up front — no faults
                  (the Figure 10/11 pipeline-overhead experiments).
``demand``        segments start as declared by the address space (inputs
                  CPU-dirty, outputs untouched) — on-demand migration
                  (Figures 12-14).
``demand-output`` only output (and heap) pages fault, on first touch
                  (Figure 14).
``demand-heap``   only device-heap pages fault, on first touch
                  (Figure 13).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.schemes import BaselineStallOnFault, PipelineScheme
from repro.functional.trace import BlockTrace, KernelTrace
from repro.isa import Kernel
from repro.mem import MemorySubsystem
from repro.telemetry import Telemetry, active as _tel_active, ev as _ev
from repro.timing.decode import predecode_trace
from repro.timing.engine import EventQueue
from repro.timing.sm import SmPipeline
from repro.vm import AddressSpace, FrameAllocator

from .config import GPUConfig, InterconnectConfig, NVLINK
from .faults import FaultController, FaultStats
from .tb_scheduler import MultiKernelScheduler


#: the ``paging`` values the simulators accept (module docstring)
PAGING_MODES = ("premapped", "demand", "demand-output", "demand-heap")


class DeadlockError(Exception):
    """The simulation cannot make progress (a model bug, surfaced loudly)."""


@dataclass
class SimResult:
    """Outcome of one simulated kernel execution."""

    kernel_name: str
    scheme: str
    cycles: float
    dynamic_instructions: int
    occupancy_blocks: int
    blocks: int
    fault_stats: Optional[FaultStats] = None
    sm_stats: List = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    #: the run's Telemetry hub when tracing was enabled, else None
    telemetry: Optional[object] = None

    @property
    def ipc(self) -> float:
        return self.dynamic_instructions / self.cycles if self.cycles else 0.0


@dataclass
class StreamLaunch:
    """One enqueued kernel of a multi-stream run: the kernel, its
    functional trace, and the stream it was enqueued on."""

    kernel: Kernel
    trace: KernelTrace
    stream: int = 0


@dataclass
class StreamKernelResult:
    """Per-kernel outcome of a :class:`MultiKernelSimulator` run."""

    kernel_name: str
    kernel_id: int
    stream: int
    cycles: float  # completion cycle of the kernel's last block
    blocks: int
    dynamic_instructions: int
    faults_raised: int  # faulting accesses this kernel routed (pre-dedup)
    fault_groups: int  # 64KB fault groups this kernel enqueued first


@dataclass
class MultiKernelResult:
    """Outcome of one multi-kernel (stream-overlapped) simulation."""

    scheme: str
    cycles: float  # makespan: completion cycle of the last block overall
    kernels: List[StreamKernelResult] = field(default_factory=list)
    fault_stats: Optional[FaultStats] = None
    sm_stats: List = field(default_factory=list)
    #: blocks an SM pulled from a stream other than its home stream
    stolen_blocks: int = 0
    #: the run's Telemetry hub when tracing was enabled, else None
    telemetry: Optional[object] = None

    @property
    def dynamic_instructions(self) -> int:
        return sum(k.dynamic_instructions for k in self.kernels)

    @property
    def ipc(self) -> float:
        return self.dynamic_instructions / self.cycles if self.cycles else 0.0


class MultiKernelSimulator:
    """Cycle-level simulation of one or more kernels resident concurrently.

    The launches share *one* GPU: one fault controller (so faults from
    different kernels contend on the global pending-fault queue and the
    interconnect), one memory subsystem, one event queue, and one SM array
    partitioned across streams by a :class:`MultiKernelScheduler`.  Kernels
    on the same stream run in enqueue order; kernels on different streams
    overlap.  With ``block_switching`` the use-case-1 local scheduler can
    swap a faulted block out and swap in a block from a *different* kernel
    — the scheduler's ``next_block`` is kernel-agnostic by construction.

    Determinism contract (docs/CONCURRENCY.md): the run is a pure function
    of the launch list (order included) and the configuration — two runs
    with the same inputs are bit-identical.  A single-kernel run is the
    one-launch case (:class:`GpuSimulator`), so the golden digests pin this
    constructor, scheduler and drive loop too.
    """

    def __init__(
        self,
        launches,
        address_space: AddressSpace,
        config: GPUConfig = None,
        scheme: PipelineScheme = None,
        interconnect: InterconnectConfig = NVLINK,
        paging: str = "demand",
        local_handling: bool = False,
        block_switching: bool = False,
        ideal_switch: bool = False,
        frame_allocator: Optional[FrameAllocator] = None,
        frame_partitions=None,
        telemetry: Optional[Telemetry] = None,
        chaos=None,
        watchdog=None,
        sanitize: bool = False,
        reference_issue: bool = False,
        policy: str = "partition",
        schedule=None,
    ) -> None:
        """``launches`` is a sequence of :class:`StreamLaunch` (or
        ``(kernel, trace, stream)`` tuples) sharing ``address_space``;
        ``paging`` is one of :data:`PAGING_MODES` (module docstring);
        ``policy`` picks the SM-to-stream assignment (``partition`` |
        ``interleave``), see :class:`MultiKernelScheduler`.

        ``chaos`` (a :class:`repro.chaos.ChaosEngine`), ``watchdog`` (a
        :class:`repro.chaos.Watchdog`) and ``sanitize`` enable the
        robustness layer of docs/ROBUSTNESS.md; all default off, leaving
        the simulator's timing bit-identical and its hot paths paying a
        single ``is not None`` check.  ``reference_issue`` selects the
        pre-overhaul full round-robin issue scan on every SM (the
        executable spec the fast path is pinned against; also via
        ``REPRO_REFERENCE_ISSUE=1``).  ``schedule`` (a
        :class:`repro.mc.ScheduleControl`) makes the steal order, fault
        service order and chaos injection sites explorable decision
        points (docs/MODELCHECK.md); ``None`` keeps every legacy policy
        bit-identically."""
        from repro.chaos import InvariantSanitizer, chaos_active

        self.launches: List[StreamLaunch] = [
            sl if isinstance(sl, StreamLaunch) else StreamLaunch(*sl)
            for sl in launches
        ]
        if not self.launches:
            raise ValueError("at least one launch is required")
        self.config = config if config is not None else GPUConfig()
        self.scheme = scheme if scheme is not None else BaselineStallOnFault()
        self.address_space = address_space
        self.paging = paging
        self.telemetry = _tel_active(telemetry)
        self.chaos = chaos_active(chaos)
        self.watchdog = watchdog
        self.schedule = schedule
        self.sanitizer = InvariantSanitizer() if sanitize else None
        if self.chaos is not None:
            self.chaos.attach_telemetry(self.telemetry)
            if schedule is not None:
                self.chaos.attach_schedule(schedule)
        cfg = self.config

        frames = (
            frame_allocator
            if frame_allocator is not None
            else FrameAllocator(cfg.num_frames)
        )
        self.fault_ctl = FaultController(
            config=cfg,
            interconnect=interconnect,
            page_state=address_space.page_state,
            frame_allocator=frames,
            local_handling=local_handling,
            partitions=frame_partitions,
            telemetry=self.telemetry,
            chaos=self.chaos,
            schedule=schedule,
        )
        # Pre-mapping (driver-side) allocates from the CPU driver's slice.
        driver_frames = self.fault_ctl.cpu_frames
        if paging == "premapped":
            address_space.premap_all(driver_frames)
        elif paging == "demand":
            pass  # inputs migrate on fault; outputs/heap are first-touch
        elif paging == "demand-output":
            # Figure 14: only output (and heap) pages fault, on first touch.
            address_space.premap_kinds(
                driver_frames, ("input", "inout", "scratch")
            )
        elif paging == "demand-heap":
            # Figure 13: only device-heap pages fault, on first touch.
            address_space.premap_kinds(
                driver_frames, ("input", "inout", "scratch", "output")
            )
        else:
            raise ValueError(f"unknown paging mode {paging!r}")
        self.memsys = MemorySubsystem(
            cfg,
            translate_fn=self.fault_ctl.translate,
            telemetry=self.telemetry,
            chaos=self.chaos,
        )
        self.events = EventQueue()
        if self.sanitizer is not None:
            self.events.attach_sanitizer(self.sanitizer)

        # Streams keep their first-appearance order (enqueue order), so the
        # SM partitioning — and therefore timing — is a pure function of
        # the launch list.
        stream_ids: List[int] = []
        for sl in self.launches:
            if sl.stream not in stream_ids:
                stream_ids.append(sl.stream)
        self.stream_ids = stream_ids
        if len(stream_ids) > cfg.num_sms:
            raise ValueError(
                f"{len(stream_ids)} streams exceed {cfg.num_sms} SMs"
            )

        # Tag every block with its kernel id.  The cached workload traces
        # must not be mutated across experiments, so a block tagged for
        # another kernel is replaced by a shallow copy; kernel 0 of a fresh
        # trace runs its own blocks.
        stream_kernels: List[List[int]] = [[] for _ in stream_ids]
        kernel_blocks: Dict[int, List[BlockTrace]] = {}
        context_bytes: Dict[int, int] = {}
        occupancy = None
        for kid, sl in enumerate(self.launches):
            # Decode every static instruction once, up front: the issue
            # loop then only ever reads cached tuples (docs/PERFORMANCE.md).
            predecode_trace(sl.trace)
            stream_kernels[stream_ids.index(sl.stream)].append(kid)
            kernel_blocks[kid] = [
                b if b.kernel_id == kid
                else BlockTrace(block_id=b.block_id, warps=b.warps,
                                kernel_id=kid)
                for b in sl.trace.blocks
            ]
            context_bytes[kid] = (
                sl.kernel.regs_per_thread * 4 * sl.trace.block_dim
                + sl.kernel.smem_bytes_per_block
            )
            occ = cfg.blocks_per_sm(sl.kernel, sl.trace.block_dim)
            occupancy = occ if occupancy is None else min(occupancy, occ)

        self.tb_scheduler = MultiKernelScheduler(
            stream_kernels, kernel_blocks, cfg.num_sms, policy=policy,
            schedule=schedule,
        )
        self.sms = [
            SmPipeline(
                sm_id=i,
                config=cfg,
                events=self.events,
                memsys=self.memsys,
                fault_ctl=self.fault_ctl,
                scheme=self.scheme,
                block_source=self.tb_scheduler,
                occupancy=occupancy,
                kernel_context_bytes=context_bytes,
                telemetry=self.telemetry,
                chaos=self.chaos,
                sanitizer=self.sanitizer,
                reference_issue=reference_issue,
            )
            for i in range(cfg.num_sms)
        ]
        for sm in self.sms:
            sm.on_block_done = self._on_block_done
        self.blocks_remaining = self.tb_scheduler.total_blocks
        self.last_block_done = 0.0
        self.kernel_remaining: Dict[int, int] = {
            kid: len(blocks) for kid, blocks in kernel_blocks.items()
        }
        self.kernel_last_done: Dict[int, float] = {
            kid: 0.0 for kid in kernel_blocks
        }

        if block_switching:
            if not self.scheme.preemptible:
                raise ValueError(
                    "block switching requires a preemptible-exception scheme"
                )
            from repro.core.local_scheduler import LocalScheduler

            for sm in self.sms:
                sm.local_scheduler = LocalScheduler(
                    sm=sm,
                    config=cfg,
                    events=self.events,
                    dram=self.memsys.dram,
                    ideal=ideal_switch,
                )

        if self.telemetry is not None:
            # Gauges read this simulator lazily; _release pins them at
            # their final values, so the hub does not keep the run alive.
            reg = self.telemetry.counters
            reg.gauge("gpu.events.processed", lambda: self.events.processed)
            reg.gauge("gpu.events.scheduled", lambda: self.events.scheduled)
            reg.gauge("gpu.events.peak_depth", lambda: self.events.peak)
            reg.gauge("gpu.events.coalesced", lambda: self.events.coalesced)
            reg.gauge("gpu.blocks.remaining", lambda: self.blocks_remaining)
            reg.gauge(
                "gpu.streams.stolen_blocks",
                lambda: self.tb_scheduler.stolen,
            )
            for sid in stream_ids:
                kids = [
                    kid for kid, sl in enumerate(self.launches)
                    if sl.stream == sid
                ]
                prefix = f"gpu.stream[{sid}]"
                reg.gauge(f"{prefix}.launches", lambda n=len(kids): n)
                reg.gauge(
                    f"{prefix}.faults",
                    lambda ks=tuple(kids): sum(
                        self.fault_ctl.kernel_faults.get(k, 0) for k in ks
                    ),
                )
                reg.gauge(
                    f"{prefix}.cycles",
                    lambda ks=tuple(kids): max(
                        self.kernel_last_done[k] for k in ks
                    ),
                )
            self.telemetry.annotate(
                kernels=[sl.kernel.name for sl in self.launches],
                streams=len(stream_ids),
                policy=policy,
                paging=paging,
                local_handling=local_handling,
                block_switching=block_switching,
                num_sms=cfg.num_sms,
                **self.scheme.telemetry_tags(),
            )

    # ------------------------------------------------------------------

    def _refill_all(self, time: float) -> None:
        """Offer freed/unblocked work to every SM in sm-id order.  Needed
        when a kernel completes: its stream's successor just became
        eligible, and SMs other than the one that retired the final block
        may be sitting idle with free slots."""
        for sm in self.sms:
            if sm.free_slots > 0:
                if sm.local_scheduler is not None:
                    sm.local_scheduler.on_slot_free(time)
                else:
                    sm.refill_slot(time)

    def _on_block_done(self, sm: SmPipeline, block, time: float) -> None:
        self.blocks_remaining -= 1
        self.last_block_done = max(self.last_block_done, time)
        kid = block.kernel_id
        self.kernel_remaining[kid] -= 1
        self.kernel_last_done[kid] = max(self.kernel_last_done[kid], time)
        if self.kernel_remaining[kid] == 0:
            self.tb_scheduler.on_kernel_complete(kid)
            self._refill_all(time)
        elif sm.local_scheduler is not None:
            sm.local_scheduler.on_slot_free(time)
        else:
            sm.refill_slot(time)

    # ------------------------------------------------------------------
    # drive loop
    # ------------------------------------------------------------------

    def _progress(self):
        """The watchdog's forward-progress signature.  Deliberately *not*
        ``events.processed``: a self-rescheduling stuck event fires events
        forever without ever committing work, and must still count as a
        hang."""
        return (
            self.blocks_remaining,
            sum(sm.stats.committed for sm in self.sms),
        )

    def _hang_diagnostic(self, cycle: float):
        """Snapshot the stuck simulation for :class:`SimulationHang`."""
        from repro.chaos import HangDiagnostic

        warp_states = {}
        for sm in self.sms:
            warp_states[f"sm{sm.sm_id}"] = [
                {
                    "warp": w.slot,
                    # which launch the stuck warp belongs to: in a
                    # multi-kernel run the diagnostic must name the
                    # offender, not just the SM (docs/CONCURRENCY.md)
                    "kernel": w.block.kernel_id,
                    "idx": w.idx,
                    "trace_len": len(w.trace),
                    "inflight": w.inflight,
                    "fetch_holds": w.fetch_holds,
                    "at_barrier": w.at_barrier,
                    "replays": len(w.replay_list),
                    "done": w.done,
                }
                for w in sm.warps
            ]
        tel = self.telemetry
        return HangDiagnostic(
            cycle=cycle,
            cycle_budget=self.watchdog.cycle_budget,
            blocks_remaining=self.blocks_remaining,
            committed=sum(sm.stats.committed for sm in self.sms),
            pending_fault_groups=self.fault_ctl.pending_groups(cycle),
            event_heap_depth=len(self.events),
            next_event_time=self.events.next_time,
            warp_states=warp_states,
            telemetry_summary=(
                tel.tracer.names() if tel is not None else {}
            ),
        )

    def _launch_initial(self) -> None:
        """Initial batch: breadth-first fill of every SM to occupancy, so
        every run (and a stopped preemption probe) launches its first
        blocks in the same order."""
        for _ in range(self.sms[0].occupancy):
            for sm in self.sms:
                if sm.free_slots > 0:
                    btrace = self.tb_scheduler.next_block(sm.sm_id)
                    if btrace is None:
                        break
                    sm.launch_block(btrace, 0.0)

    def _drive(self, max_cycles: float, stop: float = math.inf) -> None:
        """Advance the cycle/event loop until every block has retired, or
        until the cycle reaches ``stop``: events and issue at ``stop``
        itself do not run, and an idle jump lands exactly on it."""
        cycle = 0.0
        events = self.events
        times = events._times  # guard: skip the run_until call when idle
        sms = self.sms
        tel = self.telemetry
        next_sample = tel.sample_interval if tel is not None else math.inf
        wd = self.watchdog
        next_wd = math.inf
        if wd is not None:
            wd.reset()
            wd.observe(self._progress())  # baseline signature at cycle 0
            next_wd = wd.cycle_budget
        while self.blocks_remaining > 0 and cycle < stop:
            if cycle > max_cycles:
                raise DeadlockError(f"exceeded {max_cycles:g} cycles")
            if times and times[0] <= cycle:
                events.run_until(cycle)
                if self.blocks_remaining <= 0:
                    break
            awake = False
            for sm in sms:
                # A sleeping SM is re-scanned when its armed ready time is
                # due — the scalar that replaced pure wake-up heap events.
                if not sm.sleeping or sm.next_ready_cycle <= cycle:
                    sm.try_issue(cycle)
                    if not sm.sleeping:
                        awake = True
            if cycle >= next_sample:
                tel.sample(cycle)
                next_sample = cycle + tel.sample_interval
            if cycle >= next_wd:
                if not wd.observe(self._progress()):
                    from repro.chaos import SimulationHang

                    raise SimulationHang(self._hang_diagnostic(cycle))
                next_wd = cycle + wd.cycle_budget
            if awake:
                cycle += 1
            else:
                # Jump to whichever comes first: the next heap event or the
                # earliest armed SM ready time.
                nxt = events.next_time
                wake = math.inf
                for sm in sms:
                    t = sm.next_ready_cycle
                    if t < wake:
                        wake = t
                if nxt is None and wake == math.inf:
                    raise DeadlockError(
                        f"{self.blocks_remaining} blocks stuck with no events "
                        f"at cycle {cycle:g}"
                    )
                if nxt is None or wake < nxt:
                    nxt = wake
                cycle = max(cycle + 1, math.ceil(nxt))
                if cycle > stop:
                    cycle = stop

    def _release(self) -> None:
        """Unwire a finished run, so that dropping the simulator frees it,
        its SMs, blocks and warps by reference counting alone.

        The SMs' ``on_block_done`` callbacks point back at the simulator,
        an event still queued when the last block retired holds an SM
        whose queue holds the event, and the telemetry gauges read the
        simulator and its parts.  Callbacks and events can never fire
        again; the gauges are pinned at their final values.  Statistics,
        the address space and ``sm.local_scheduler`` stay readable."""
        for sm in self.sms:
            sm.release()
        self.events.clear()
        if self.telemetry is not None:
            self.telemetry.counters.freeze()

    # ------------------------------------------------------------------

    def run(self, max_cycles: float = 2e9) -> MultiKernelResult:
        """Run every launch to completion; returns the merged results."""
        self._launch_initial()
        self._drive(max_cycles)
        tel = self.telemetry

        if self.sanitizer is not None:
            self.sanitizer.check_frames(self.address_space.page_state)
        if tel is not None:
            tel.sample(self.last_block_done)
            for kid, sl in enumerate(self.launches):
                tel.tracer.emit_span(
                    _ev.EV_KERNEL, 0.0, self.kernel_last_done[kid], "gpu",
                    {"kernel": sl.kernel.name, "kernel_id": kid,
                     "stream": sl.stream, "scheme": self.scheme.name},
                )
        self._release()
        kernels = [
            StreamKernelResult(
                kernel_name=sl.kernel.name,
                kernel_id=kid,
                stream=sl.stream,
                cycles=self.kernel_last_done[kid],
                blocks=len(sl.trace.blocks),
                dynamic_instructions=sl.trace.dynamic_instructions(),
                faults_raised=self.fault_ctl.kernel_faults.get(kid, 0),
                fault_groups=self.fault_ctl.kernel_groups.get(kid, 0),
            )
            for kid, sl in enumerate(self.launches)
        ]
        return MultiKernelResult(
            scheme=self.scheme.name,
            cycles=self.last_block_done,
            kernels=kernels,
            fault_stats=self.fault_ctl.stats,
            sm_stats=[sm.stats for sm in self.sms],
            stolen_blocks=self.tb_scheduler.stolen,
            telemetry=tel,
        )


class GpuSimulator(MultiKernelSimulator):
    """Cycle-level simulation of one kernel launch: the one-launch
    :class:`MultiKernelSimulator`, with the kernel on stream 0."""

    def __init__(
        self,
        kernel: Kernel,
        trace: KernelTrace,
        address_space: AddressSpace,
        config: GPUConfig = None,
        scheme: PipelineScheme = None,
        interconnect: InterconnectConfig = NVLINK,
        paging: str = "premapped",
        local_handling: bool = False,
        block_switching: bool = False,
        ideal_switch: bool = False,
        frame_allocator: Optional[FrameAllocator] = None,
        frame_partitions=None,
        telemetry: Optional[Telemetry] = None,
        chaos=None,
        watchdog=None,
        sanitize: bool = False,
        reference_issue: bool = False,
        schedule=None,
    ) -> None:
        """The arguments after ``trace`` are
        :class:`MultiKernelSimulator`'s, except that ``paging`` defaults
        to ``premapped`` and one stream needs no ``policy``."""
        self.kernel = kernel
        self.trace = trace
        super().__init__(
            [StreamLaunch(kernel, trace)], address_space, config=config,
            scheme=scheme, interconnect=interconnect, paging=paging,
            local_handling=local_handling, block_switching=block_switching,
            ideal_switch=ideal_switch, frame_allocator=frame_allocator,
            frame_partitions=frame_partitions, telemetry=telemetry,
            chaos=chaos, watchdog=watchdog, sanitize=sanitize,
            reference_issue=reference_issue, schedule=schedule,
        )

    def run(self, max_cycles: float = 2e9) -> SimResult:
        """Run the launch to completion; returns the results."""
        res = super().run(max_cycles)
        (kres,) = res.kernels
        return SimResult(
            kernel_name=kres.kernel_name,
            scheme=res.scheme,
            cycles=res.cycles,
            dynamic_instructions=kres.dynamic_instructions,
            occupancy_blocks=self.sms[0].occupancy,
            blocks=kres.blocks,
            fault_stats=res.fault_stats,
            sm_stats=res.sm_stats,
            telemetry=res.telemetry,
        )
