"""Fault routing and resolution: the fill unit's pending-fault queue, the
CPU driver path (interconnect + serializing CPU handler), and the GPU-local
handler of use case 2.

All faults are deduplicated at the 64KB handling granularity (16 pages per
group, Section 5.1): the first faulting access to a group enqueues one
resolution; later faulting accesses to the same group join it.  The queue
*position* returned on enqueue is what the use-case-1 local scheduler
compares to its switching threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.telemetry.events import (
    EV_FAULT_JOIN,
    EV_FAULT_RAISE,
    EV_FAULT_RESOLVE,
)
from repro.vm import (
    FAULT_GRANULARITY_PAGES,
    FaultClass,
    FrameAllocator,
    SystemPageState,
    pages_in_group,
)

from .config import GPUConfig, InterconnectConfig


class InvalidAccessError(Exception):
    """A GPU access touched an address outside every segment: the handler
    would request a kernel abort (Section 4.2)."""


@dataclass
class FaultOutcome:
    """What the SM learns about a fault it raised."""

    group: int
    resolved_time: float
    position: int
    fault_class: FaultClass
    handled_locally: bool


@dataclass
class FaultStats:
    faults_raised: int = 0  # faulting accesses routed here (pre-dedup)
    joined_pending: int = 0  # accesses that joined an in-flight resolution
    groups_resolved: int = 0
    migrations: int = 0
    alloc_only: int = 0
    first_touch: int = 0
    handled_locally: int = 0
    handled_by_cpu: int = 0
    link_busy: float = 0.0
    cpu_busy: float = 0.0


class FaultController:
    """Classifies, deduplicates, routes and times page-fault resolution."""

    def __init__(
        self,
        config: GPUConfig,
        interconnect: InterconnectConfig,
        page_state: SystemPageState,
        frame_allocator: FrameAllocator,
        local_handling: bool = False,
        partitions: Optional[List[FrameAllocator]] = None,
        telemetry=None,
        chaos=None,
        schedule=None,
    ) -> None:
        """``partitions`` lets a caller that persists physical memory across
        launches (the runtime facade) supply an existing CPU+per-SM split of
        the frame pool instead of partitioning the (then non-empty) pool.
        ``schedule`` (a :class:`repro.mc.ScheduleControl`) turns the
        pending-queue service order into an explorable decision point;
        ``None`` keeps the FIFO arrival order, bit-identically."""
        self.config = config
        self.interconnect = interconnect
        self.page_state = page_state
        self.local_handling = local_handling
        self.schedule = schedule
        self.stats = FaultStats()
        # Per-kernel tallies for multi-stream runs (docs/CONCURRENCY.md).
        # Kept out of FaultStats: the golden-digest fixture hashes that
        # dataclass, and single-kernel runs must stay bit-identical.
        self.kernel_faults: Dict[int, int] = {}
        self.kernel_groups: Dict[int, int] = {}
        # group -> resolution time (includes already-resolved groups)
        self._group_resolved: Dict[int, float] = {}
        # subset still unresolved at the last _position() query (lazily pruned)
        self._unresolved: Dict[int, float] = {}
        self._cpu_next_free = 0.0
        self._link_next_free = 0.0
        self._sm_handler_next_free = [0.0] * config.num_sms
        if partitions is not None:
            self._cpu_frames = partitions[0]
            self._sm_frames = partitions[1:]
        elif local_handling:
            # Partition the physical space: CPU driver keeps one slice, each
            # SM's local handler gets its own (Section 4.2).
            parts = frame_allocator.partition(config.num_sms + 1)
            self._cpu_frames = parts[0]
            self._sm_frames = parts[1:]
        else:
            self._cpu_frames = frame_allocator
            self._sm_frames = []
        from repro.chaos import chaos_active
        from repro.telemetry import active

        # Injection hooks (docs/ROBUSTNESS.md): ``None`` when chaos is
        # disabled, so the resolution paths are bit-identical without it.
        self.chaos = chaos_active(chaos)
        self.tel = active(telemetry)
        if self.tel is not None:
            reg = self.tel.counters
            reg.bind_stats("gpu.fault", self.stats)
            reg.gauge(
                "gpu.fault.pending_queue_depth",
                lambda: len(self._unresolved),
            )

    @property
    def cpu_frames(self) -> FrameAllocator:
        """The CPU driver's slice of the physical frame pool."""
        return self._cpu_frames

    # ------------------------------------------------------------------
    # time-aware page-table view used by the MMU's walkers
    # ------------------------------------------------------------------

    def translate(self, vpn: int, time: float) -> Optional[int]:
        ppn = self.page_state.gpu_translate(vpn)
        if ppn is None:
            return None
        resolved = self._group_resolved.get(vpn // FAULT_GRANULARITY_PAGES)
        if resolved is not None and resolved > time:
            return None  # mapping installed by a resolution still in flight
        return ppn

    # ------------------------------------------------------------------
    # fault entry point (called by the SM's global-memory path)
    # ------------------------------------------------------------------

    def on_fault(
        self, vpn: int, detect_time: float, sm_id: int, kernel_id: int = 0
    ) -> FaultOutcome:
        """Route one faulting access: classify, deduplicate at the 64KB
        group granularity, time its resolution (CPU driver path or GPU-local
        handler) and report the outcome back to the SM.  ``kernel_id`` tags
        the fault with the raising launch so multi-stream runs can attribute
        queue contention per stream (single-kernel runs leave it at 0)."""
        self.stats.faults_raised += 1
        self.kernel_faults[kernel_id] = (
            self.kernel_faults.get(kernel_id, 0) + 1
        )
        group = vpn // FAULT_GRANULARITY_PAGES
        tel = self.tel
        if tel is not None:
            tel.tracer.emit(
                EV_FAULT_RAISE, detect_time, "faults",
                {"vpn": vpn, "group": group, "sm": sm_id,
                 "kernel": kernel_id},
            )
        pending = self._group_resolved.get(group)
        if pending is not None and pending > detect_time:
            # Already being resolved: join the pending fault.
            self.stats.joined_pending += 1
            if tel is not None:
                tel.tracer.emit(
                    EV_FAULT_JOIN, detect_time, "faults",
                    {"vpn": vpn, "group": group, "sm": sm_id,
                     "kernel": kernel_id, "resolved_time": pending},
                )
            return FaultOutcome(
                group=group,
                resolved_time=pending,
                position=self._position(detect_time),
                fault_class=FaultClass.ALLOC_ONLY,
                handled_locally=False,
            )

        fault_class = self.page_state.classify_fault(vpn)
        if fault_class is FaultClass.INVALID:
            raise InvalidAccessError(
                f"SM{sm_id}: access to unmapped address page {vpn:#x}"
            )

        chaos = self.chaos
        if chaos is not None:
            # Burst fault storm: phantom faults enqueued just ahead of this
            # one occupy the link and the CPU handler (timing only — no
            # pages are installed for them).
            burst = chaos.fault_storm(detect_time)
            if burst:
                ic = self.interconnect
                link_from = max(self._link_next_free, detect_time)
                self._link_next_free = link_from + burst * ic.msg_occupancy
                cpu_from = max(self._cpu_next_free, detect_time)
                self._cpu_next_free = cpu_from + burst * ic.cpu_service
                self.stats.link_busy += burst * ic.msg_occupancy
                self.stats.cpu_busy += burst * ic.cpu_service

        position = self._position(detect_time)
        local = self.local_handling and fault_class is FaultClass.FIRST_TOUCH
        if local:
            resolved = self._resolve_local(detect_time, sm_id)
            self.stats.handled_locally += 1
            frames = self._sm_frames[sm_id]
        else:
            enter = detect_time
            if self.schedule is not None and position > 0:
                # Explorable service order (docs/MODELCHECK.md): the fill
                # unit may service this group after 0..min(position, 3)
                # of the groups already pending, each slot one CPU
                # service quantum.  Choice 0 is arrival order (FIFO) —
                # the legacy policy, bit-identical when chosen.
                slot = self.schedule.choose(
                    "fault.service_order",
                    ("group", group),
                    min(position, 3) + 1,
                    detect_time,
                )
                enter += slot * self.interconnect.cpu_service
            resolved = self._resolve_cpu(enter, fault_class)
            self.stats.handled_by_cpu += 1
            frames = self._cpu_frames
        if chaos is not None:
            # Delayed resolution completion: the signal arrives late.
            resolved += chaos.resolve_delay(detect_time)

        if fault_class is FaultClass.MIGRATE:
            self.stats.migrations += 1
        elif fault_class is FaultClass.ALLOC_ONLY:
            self.stats.alloc_only += 1
        else:
            self.stats.first_touch += 1

        # Install the whole 64KB granule (valid pages only).
        for page in pages_in_group(group):
            if self.page_state.is_valid(page) and (
                self.page_state.gpu_translate(page) is None
            ):
                self.page_state.install_gpu_page(page, frames.allocate())
        self._group_resolved[group] = resolved
        self._unresolved[group] = resolved
        self.stats.groups_resolved += 1
        self.kernel_groups[kernel_id] = (
            self.kernel_groups.get(kernel_id, 0) + 1
        )
        if tel is not None:
            tel.tracer.emit_span(
                EV_FAULT_RESOLVE, detect_time, resolved - detect_time,
                "faults",
                {"group": group, "sm": sm_id, "kernel": kernel_id,
                 "class": fault_class.name, "local": local,
                 "queue_position": position},
            )
        return FaultOutcome(
            group=group,
            resolved_time=resolved,
            position=position,
            fault_class=fault_class,
            handled_locally=local,
        )

    # ------------------------------------------------------------------
    # resolution cost models
    # ------------------------------------------------------------------

    def _resolve_cpu(self, detect: float, fault_class: FaultClass) -> float:
        """CPU driver path: fault message over the link -> serialized CPU
        handler -> (for migrations) serialized link transfer -> completion
        signal.  Both the fault messages and the data transfers occupy the
        link, so mass concurrent faults contend on it and on the single CPU
        handler — the effect use case 2 exists to avoid."""
        ic = self.interconnect
        chaos = self.chaos
        msg_occupancy = ic.msg_occupancy
        cpu_service = ic.cpu_service
        transfer_time = ic.transfer_time
        reorder_slots = 0
        if chaos is not None:
            msg_occupancy = chaos.link_latency(msg_occupancy, detect)
            cpu_service = chaos.cpu_latency(cpu_service, detect)
            # Interconnect packet chaos (docs/ROBUSTNESS.md): a dropped
            # fault message is retransmitted, each lost copy re-occupying
            # the link; a reordered one waits behind packets that
            # overtook it before it may start.
            retx = chaos.pkt_drop(detect)
            if retx:
                msg_occupancy *= 1 + retx
            reorder_slots = chaos.pkt_reorder(detect)
        half_signal = ic.signal_latency / 2
        msg_start = max(detect + half_signal, self._link_next_free)
        if reorder_slots:
            msg_start += reorder_slots * ic.msg_occupancy
        msg_done = msg_start + msg_occupancy
        self._link_next_free = msg_done
        self.stats.link_busy += msg_occupancy
        cpu_start = max(msg_done, self._cpu_next_free)
        cpu_done = cpu_start + cpu_service
        self._cpu_next_free = cpu_done
        self.stats.cpu_busy += cpu_service
        if fault_class is FaultClass.MIGRATE:
            if chaos is not None:
                transfer_time = chaos.link_latency(transfer_time, cpu_done)
            link_start = max(cpu_done, self._link_next_free)
            link_done = link_start + transfer_time
            self._link_next_free = link_done
            self.stats.link_busy += transfer_time
            return link_done + half_signal
        return cpu_done + half_signal

    def _resolve_local(self, detect: float, sm_id: int) -> float:
        """GPU-local handler (use case 2): the faulting warp runs the
        handler in system mode.  Handlers on different SMs run concurrently;
        within an SM a short allocator critical section serializes."""
        cfg = self.config
        handler_latency = cfg.gpu_handler_latency
        if self.chaos is not None:
            handler_latency = self.chaos.cpu_latency(handler_latency, detect)
        handler_done = detect + handler_latency
        serial_start = max(
            handler_done - cfg.gpu_handler_serial,
            self._sm_handler_next_free[sm_id],
        )
        resolved = serial_start + cfg.gpu_handler_serial
        self._sm_handler_next_free[sm_id] = resolved
        return resolved

    # ------------------------------------------------------------------

    def _position(self, time: float) -> int:
        """Position in the global pending-fault queue at ``time``: the
        number of fault groups still unresolved."""
        stale = [g for g, t in self._unresolved.items() if t <= time]
        for g in stale:
            del self._unresolved[g]
        return len(self._unresolved)

    def pending_groups(self, time: float) -> List[int]:
        return [g for g, t in self._unresolved.items() if t > time]
