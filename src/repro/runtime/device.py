"""Host-side runtime facade: a CUDA-like managed-memory device API.

The paper's motivation (Section 1) is programmability: unified memory with
on-demand migration removes explicit transfers, and preemptible exceptions
make its machinery (demand paging, lazy allocation) efficient.  This module
is the user-facing library tying the reproduction together the way a driver
API would:

    dev = GpuDevice(scheme="replay-queue", local_handling=True)
    x = dev.malloc_managed(n * 4)
    y = dev.malloc_managed(n * 4)
    dev.fill(x, [...])                 # host writes -> pages CPU-dirty
    result = dev.launch(kernel, grid=32, block=128, args=[x, y, 2.0])
    print(result.cycles, dev.read(y, n))

State persists across launches: memory contents, page residency (a second
kernel touching the same data takes no migration faults), physical frames,
and the accumulated cycle count — exactly the behaviour managed memory
gives a CUDA application.

Streams (docs/CONCURRENCY.md) add concurrent kernel execution on the same
device::

    s0, s1 = dev.create_stream(), dev.create_stream()
    h0 = dev.launch(ka, grid=8, block=128, args=[x], stream=s0)
    h1 = dev.launch(kb, grid=8, block=128, args=[y], stream=s1)
    overlap = dev.synchronize()        # both kernels share the GPU
    print(overlap.cycles, h0.result.faults_raised)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core import PipelineScheme, make_scheme
from repro.functional import Interpreter, Launch
from repro.isa import Kernel
from repro.system import (
    GPUConfig,
    GpuSimulator,
    INTERCONNECTS,
    MultiKernelResult,
    MultiKernelSimulator,
    SimResult,
    StreamKernelResult,
    StreamLaunch,
)
from repro.system.config import InterconnectConfig
from repro.vm import (
    AddressSpace,
    DeviceHeap,
    FrameAllocator,
    SegmentKind,
    SparseMemory,
)


class RuntimeError_(Exception):
    """Raised on misuse of the device API."""


class AllocationFailure(RuntimeError_):
    """A managed allocation failed transiently (chaos-injected driver
    heap exhaustion).  Structured and retryable: the device stays fully
    usable and a repeated ``malloc_managed`` may succeed."""

    def __init__(self, nbytes: int) -> None:
        self.nbytes = nbytes
        super().__init__(
            f"managed allocation of {nbytes}B failed transiently "
            "(chaos: runtime.alloc_fail)"
        )


class StreamTeardownError(RuntimeError_):
    """A stream was torn down mid-kernel at synchronize time
    (chaos-injected).  Structured and retryable: the queued launches
    remain queued, so a repeated ``synchronize`` resumes them."""

    def __init__(self, stream: int, pending: int) -> None:
        self.stream = stream
        self.pending = pending
        super().__init__(
            f"stream {stream} torn down mid-kernel with {pending} "
            "launch(es) queued (chaos: runtime.stream_teardown); "
            "re-synchronize to resume"
        )


@dataclass(frozen=True)
class DevicePointer:
    """An opaque handle to a managed allocation."""

    name: str
    address: int
    nbytes: int

    def __index__(self) -> int:  # usable directly as a kernel argument
        return self.address


@dataclass
class LaunchResult:
    """Outcome of one kernel launch through the runtime."""

    sim: SimResult
    trace_instructions: int

    @property
    def cycles(self) -> float:
        return self.sim.cycles

    @property
    def fault_stats(self):
        return self.sim.fault_stats


@dataclass
class StreamLaunchHandle:
    """A pending stream launch: returned by ``launch(..., stream=s)``
    immediately (the kernel has executed *functionally*, so its memory
    effects are visible to ``read`` and to later enqueues), filled with
    its timing ``result`` by :meth:`GpuDevice.synchronize`."""

    kernel_name: str
    stream_id: int
    kernel_id: int  # device-wide enqueue index (tags faults/blocks/events)
    trace_instructions: int
    result: Optional[StreamKernelResult] = None

    @property
    def done(self) -> bool:
        """True once a device synchronize has simulated this launch."""
        return self.result is not None

    @property
    def cycles(self) -> float:
        """Completion cycle within the synchronized run (raises until
        :meth:`GpuDevice.synchronize` has run)."""
        if self.result is None:
            raise RuntimeError_(
                f"{self.kernel_name}: launch not yet synchronized"
            )
        return self.result.cycles


class Stream:
    """An in-order launch queue on a :class:`GpuDevice` (CUDA-stream-like).

    Kernels enqueued on the same stream execute in enqueue order; kernels
    on *different* streams run concurrently on the shared GPU when
    :meth:`GpuDevice.synchronize` fires — contending on the same fault
    queue, interconnect and SMs (docs/CONCURRENCY.md).  Create streams
    with :meth:`GpuDevice.create_stream`."""

    def __init__(self, device: "GpuDevice", stream_id: int) -> None:
        self.device = device
        self.stream_id = stream_id
        #: handles of every launch enqueued on this stream
        self.launches: List[StreamLaunchHandle] = []

    def launch(
        self, kernel: Kernel, grid: int, block: int, args: Sequence = ()
    ) -> StreamLaunchHandle:
        """Enqueue a kernel on this stream (sugar for
        ``device.launch(..., stream=self)``)."""
        return self.device.launch(kernel, grid, block, args, stream=self)

    def synchronize(self) -> Optional[MultiKernelResult]:
        """Drain the device's queued work.  NOTE: stronger than CUDA —
        this synchronizes the *whole device*, because all resident kernels
        are simulated together (docs/CONCURRENCY.md)."""
        return self.device.synchronize()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Stream {self.stream_id} launches={len(self.launches)}>"
        )


class GpuDevice:
    """A persistent simulated GPU with managed memory."""

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        scheme: Union[str, PipelineScheme] = "replay-queue",
        interconnect: Union[str, InterconnectConfig] = "nvlink",
        local_handling: bool = False,
        block_switching: bool = False,
        heap_bytes: int = 0,
        heap_arenas: int = 256,
        time_scale: float = 1.0,
        chaos=None,
    ) -> None:
        # A device-level engine drives the runtime.* hooks (allocation
        # failures, stream teardown).  Keep it separate from any engine
        # handed to a simulation: the facade draws from this RNG stream
        # at API-call order, so sharing one engine would perturb the
        # simulator's seeded injection sequence.
        from repro.chaos import chaos_active

        self.chaos = chaos_active(chaos)
        self.config = (config or GPUConfig()).time_scaled(time_scale)
        self.scheme = (
            make_scheme(scheme) if isinstance(scheme, str) else scheme
        )
        if isinstance(interconnect, str):
            interconnect = INTERCONNECTS[interconnect]
        self.interconnect = interconnect.scaled(time_scale)
        self.local_handling = local_handling
        self.block_switching = block_switching
        if (block_switching or local_handling) and not self.scheme.preemptible:
            raise RuntimeError_(
                "the use cases require a preemptible-exception scheme"
            )
        self.aspace = AddressSpace()
        self.memory = SparseMemory()
        self.frames = FrameAllocator(self.config.num_frames)
        self._partitions = (
            self.frames.partition(self.config.num_sms + 1)
            if local_handling
            else None
        )
        self.heap: Optional[DeviceHeap] = None
        if heap_bytes:
            seg = self.aspace.add_segment("heap", heap_bytes, SegmentKind.HEAP)
            self.heap = DeviceHeap(seg.base, seg.size, num_arenas=heap_arenas)
        self._alloc_counter = 0
        self.total_cycles = 0.0
        self.launches: List[LaunchResult] = []
        # Stream state (docs/CONCURRENCY.md): streams created by
        # create_stream(), launches queued by launch(..., stream=s) until
        # synchronize() simulates them all concurrently.
        self.streams: List[Stream] = []
        self.sync_results: List[MultiKernelResult] = []
        self._queued: List[StreamLaunch] = []
        self._queued_handles: List[StreamLaunchHandle] = []

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------

    def malloc_managed(
        self, nbytes: int, name: Optional[str] = None
    ) -> DevicePointer:
        """Allocate managed memory (lazily backed: first GPU touch faults
        as FIRST_TOUCH unless the host writes it first)."""
        if nbytes <= 0:
            raise RuntimeError_("allocation size must be positive")
        if self.chaos is not None and self.chaos.alloc_failure(
            self.total_cycles, nbytes
        ):
            raise AllocationFailure(nbytes)
        if name is None:
            name = f"managed{self._alloc_counter}"
            self._alloc_counter += 1
        seg = self.aspace.add_segment(name, nbytes, SegmentKind.OUTPUT)
        return DevicePointer(name=name, address=seg.base, nbytes=nbytes)

    def fill(self, ptr: DevicePointer, values: Sequence[float],
             width: int = 4) -> None:
        """Host writes: contents stored, pages become CPU-dirty (a later
        GPU access takes a MIGRATE fault)."""
        if len(values) * width > ptr.nbytes:
            raise RuntimeError_(
                f"{ptr.name}: {len(values)} values overflow {ptr.nbytes}B"
            )
        self.memory.fill(ptr.address, values, width=width)
        from repro.vm import Owner

        self.aspace.page_state.register_range(
            ptr.address, ptr.nbytes, Owner.CPU, cpu_dirty=True
        )

    def read(self, ptr: DevicePointer, count: int, width: int = 4) -> list:
        """Host reads back results (contents, no timing)."""
        return self.memory.read_array(ptr.address, count, width=width)

    # ------------------------------------------------------------------
    # kernel launch
    # ------------------------------------------------------------------

    def create_stream(self) -> Stream:
        """Create a new stream: an in-order launch queue whose kernels run
        concurrently with other streams' at :meth:`synchronize` time."""
        stream = Stream(self, len(self.streams))
        self.streams.append(stream)
        return stream

    def launch(
        self,
        kernel: Kernel,
        grid: int,
        block: int,
        args: Sequence = (),
        telemetry=None,
        stream: Optional[Stream] = None,
    ) -> Union[LaunchResult, StreamLaunchHandle]:
        """Execute ``kernel`` functionally and simulate its timing against
        the device's current paging state.

        Without ``stream`` the launch is synchronous: it simulates
        immediately and returns a :class:`LaunchResult` (any queued stream
        work is drained first via an implicit :meth:`synchronize`, so
        program order is preserved).  With ``stream`` the launch is
        *enqueued*: its functional execution happens now (memory effects
        land in enqueue order — the determinism contract of
        docs/CONCURRENCY.md), timing is deferred to :meth:`synchronize`,
        and a :class:`StreamLaunchHandle` is returned.

        Pass a fresh :class:`repro.telemetry.Telemetry` to trace a
        synchronous launch (each launch's cycle clock restarts at zero, so
        telemetry is per launch); it is reachable afterwards via
        ``result.sim.telemetry``.  For stream launches pass the telemetry
        to :meth:`synchronize` instead."""
        if stream is not None and telemetry is not None:
            raise RuntimeError_(
                "pass telemetry to synchronize(), not to a stream launch"
            )
        if stream is None and self._queued:
            # A synchronous launch must observe every enqueued kernel's
            # timing state (page residency): drain the queue first.
            self.synchronize()
        params = [
            float(a.address) if isinstance(a, DevicePointer) else float(a)
            for a in args
        ]
        launch = Launch(kernel, grid_dim=grid, block_dim=block, params=params)
        interp = Interpreter(
            memory=self.memory, address_space=self.aspace, heap=self.heap
        )
        trace = interp.run(launch)

        if stream is not None:
            sid = stream.stream_id
            if sid >= len(self.streams) or self.streams[sid] is not stream:
                raise RuntimeError_(
                    "stream does not belong to this device"
                )
            handle = StreamLaunchHandle(
                kernel_name=kernel.name,
                stream_id=stream.stream_id,
                kernel_id=len(self._queued),
                trace_instructions=trace.dynamic_instructions(),
            )
            self._queued.append(
                StreamLaunch(kernel=kernel, trace=trace,
                             stream=stream.stream_id)
            )
            self._queued_handles.append(handle)
            stream.launches.append(handle)
            return handle

        sim = GpuSimulator(
            kernel=kernel,
            trace=trace,
            address_space=self.aspace,
            config=self.config,
            scheme=self.scheme,
            interconnect=self.interconnect,
            paging="demand",  # residency decides what faults
            local_handling=self.local_handling,
            block_switching=self.block_switching,
            frame_allocator=self.frames,
            frame_partitions=self._partitions,
            telemetry=telemetry,
        )
        sim_result = sim.run()
        result = LaunchResult(
            sim=sim_result, trace_instructions=trace.dynamic_instructions()
        )
        self.total_cycles += sim_result.cycles
        self.launches.append(result)
        return result

    def synchronize(
        self,
        telemetry=None,
        policy: str = "partition",
        chaos=None,
        watchdog=None,
        sanitize: bool = False,
        schedule=None,
    ) -> Optional[MultiKernelResult]:
        """Simulate every queued stream launch concurrently on the shared
        GPU and block until all complete (CUDA ``cudaDeviceSynchronize``).

        Kernels on the same stream run in enqueue order; kernels on
        different streams overlap, contending on the single pending-fault
        queue, the interconnect and the SM array (partitioned per
        ``policy`` — see :class:`repro.system.MultiKernelScheduler`).
        Fills each queued launch's :class:`StreamLaunchHandle` and advances
        ``total_cycles`` by the overlapped makespan.  Returns the
        :class:`repro.system.MultiKernelResult` (also appended to
        ``sync_results``), or None when nothing was queued.

        ``chaos``/``watchdog``/``sanitize`` enable the robustness layer
        *inside* this synchronize's simulation (docs/ROBUSTNESS.md) —
        distinct from the device-level engine driving the ``runtime.*``
        hooks; ``schedule`` (a :class:`repro.mc.ScheduleControl`) makes
        the run's scheduling/injection choices explorable decision points
        (docs/MODELCHECK.md).  All default off/None, leaving the
        simulation bit-identical."""
        if not self._queued:
            return None
        if self.chaos is not None:
            for sid in sorted({sl.stream for sl in self._queued}):
                if self.chaos.stream_teardown(self.total_cycles, sid):
                    raise StreamTeardownError(sid, len(self._queued))
        queued, handles = self._queued, self._queued_handles
        self._queued, self._queued_handles = [], []
        sim = MultiKernelSimulator(
            queued,
            address_space=self.aspace,
            config=self.config,
            scheme=self.scheme,
            interconnect=self.interconnect,
            paging="demand",  # residency decides what faults
            local_handling=self.local_handling,
            block_switching=self.block_switching,
            frame_allocator=self.frames,
            frame_partitions=self._partitions,
            telemetry=telemetry,
            chaos=chaos,
            watchdog=watchdog,
            sanitize=sanitize,
            policy=policy,
            schedule=schedule,
        )
        result = sim.run()
        for handle, kres in zip(handles, result.kernels):
            handle.result = kres
        self.total_cycles += result.cycles
        self.sync_results.append(result)
        return result

    # ------------------------------------------------------------------

    def resident_pages(self) -> int:
        """GPU-resident page count (how much has migrated/been allocated)."""
        return len(self.aspace.page_state.gpu_table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GpuDevice scheme={self.scheme.name} "
            f"ic={self.interconnect.name} launches={len(self.launches)}>"
        )
