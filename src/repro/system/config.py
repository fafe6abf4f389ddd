"""GPU system configuration (paper Table 1) and interconnect presets.

All times are in GPU core cycles.  The SM runs at 1 GHz, so one cycle is one
nanosecond and ``US`` converts the paper's microsecond constants (fault
round-trip costs, handler latencies) to cycles directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple, Union

#: cycles per microsecond at the 1 GHz SM clock of Table 1
US = 1000.0


@dataclass(frozen=True)
class InterconnectConfig:
    """CPU<->GPU link + CPU fault-handler cost model.

    The paper measures the principal components of the fault round trip
    (page pinning, physical allocation, the transfer) and combines them with
    link latencies into two per-fault costs (Section 5.3): one for faults
    needing a data transfer (``migrate_cost``) and one for allocation-only
    faults (``alloc_cost``).  We decompose each unloaded cost into:

      alloc_cost   = signal_latency + cpu_service
      migrate_cost = signal_latency + cpu_service + transfer_time

    where ``cpu_service`` serializes at the (single) CPU handler and
    ``transfer_time`` serializes on the link — the two contended resources
    that make concurrent GPU faults queue up.
    """

    name: str
    migrate_cost: float  # unloaded round trip incl. 64KB transfer (cycles)
    alloc_cost: float  # unloaded round trip, no transfer (cycles)
    cpu_service: float  # serialized CPU handler occupancy per fault (cycles)
    #: link occupancy of the fault request/response messages + page-pinning
    #: traffic (every CPU-handled fault pays it; part of the measured
    #: unloaded cost, not added on top)
    msg_occupancy: float = 0.5 * 1000.0

    @property
    def signal_latency(self) -> float:
        return self.alloc_cost - self.cpu_service - self.msg_occupancy

    @property
    def transfer_time(self) -> float:
        """Link occupancy of one 64KB fault-granule transfer."""
        return self.migrate_cost - self.alloc_cost

    def scaled(self, time_scale: float) -> "InterconnectConfig":
        """Divide every measured cost by ``time_scale``.

        Our datasets are scaled down from the Parboil defaults to keep
        Python simulation tractable; scaling the microsecond-range fault
        constants by the same factor preserves the dimensionless ratios the
        results depend on (fault-handling time vs. kernel time, queue
        depths, link occupancy).  The substitution is recorded per
        experiment in EXPERIMENTS.md; :func:`time_scaled_system` applies
        it to the GPU and the link together.
        """
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        return InterconnectConfig(
            name=self.name,
            migrate_cost=self.migrate_cost / time_scale,
            alloc_cost=self.alloc_cost / time_scale,
            cpu_service=self.cpu_service / time_scale,
            msg_occupancy=self.msg_occupancy / time_scale,
        )


#: Paper Section 5.3: 12us/10us for NVLink; 25us/12us for PCIe 3.0.  The
#: per-fault message/pinning link occupancy is larger on PCIe (higher
#: per-transaction cost), which is why the paper sees local fault handling
#: help PCIe more: "the higher fault cost ... leads to higher contention of
#: the system interconnect".
NVLINK = InterconnectConfig(
    name="nvlink", migrate_cost=12 * US, alloc_cost=10 * US,
    cpu_service=2 * US, msg_occupancy=1 * US,
)
PCIE = InterconnectConfig(
    name="pcie", migrate_cost=25 * US, alloc_cost=12 * US,
    cpu_service=2 * US, msg_occupancy=2 * US,
)

INTERCONNECTS: Dict[str, InterconnectConfig] = {"nvlink": NVLINK, "pcie": PCIE}


@dataclass(frozen=True)
class GPUConfig:
    """The baseline GPU of Table 1 (NVIDIA Kepler K20-like, 16 SMs)."""

    # SM
    frequency_ghz: float = 1.0
    max_tbs_per_sm: int = 16
    max_warps_per_sm: int = 64
    register_file_bytes: int = 256 * 1024
    shared_mem_bytes: int = 32 * 1024
    issue_width: int = 2  # 2 instructions total from 1 or 2 warps
    num_math_units: int = 2
    num_sfu_units: int = 1
    num_ldst_units: int = 1
    num_branch_units: int = 1
    operand_read_latency: int = 2

    # L1 (per SM)
    l1_size: int = 32 * 1024
    l1_assoc: int = 4
    line_size: int = 128
    l1_mshrs: int = 32
    l1_latency: int = 40
    l1_tlb_entries: int = 32
    l1_tlb_assoc: int = 8

    # System
    num_sms: int = 16
    l2_size: int = 2 * 1024 * 1024
    l2_assoc: int = 8
    l2_latency: int = 70
    l2_mshrs: int = 512
    l2_tlb_entries: int = 1024
    l2_tlb_assoc: int = 8
    l2_tlb_latency: int = 70
    l2_tlb_mshrs: int = 128
    num_walkers: int = 64
    walk_latency: int = 500
    dram_bandwidth_gbps: float = 256.0
    dram_latency: int = 200
    gpu_memory_bytes: int = 256 * 1024 * 1024

    # Fault handling (Sections 5.3 / 5.4)
    gpu_handler_latency: float = 20 * US  # measured prototype GPU handler
    gpu_handler_serial: float = 0.5 * US  # per-SM serialized allocator section
    #: outstanding faulted memory instructions an SM's LD/ST pipeline can
    #: park (stall-on-fault keeps them "in the middle of the pipeline", so
    #: a handful of unresolved faults clogs the SM's entire memory path —
    #: the paper's core motivation for preemptible faults)
    pending_fault_limit: int = 16
    block_switch_threshold: int = 2  # min fault-queue position to switch
    max_extra_blocks: int = 4  # extra blocks a local scheduler may fetch
    context_switch_fixed: float = 200.0  # fixed save/restore overhead, cycles
    #: time-scale divisor applied by :meth:`time_scaled` — recorded so that
    #: latency-class costs tied to physical sizes (context save/restore
    #: traffic) are scaled consistently with the fault-cost constants
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        # An SM with no issue slot or no unit of a class never issues that
        # class's instructions; the issue scan also relies on every unit
        # budget starting at one or more (docs/PERFORMANCE.md).
        for name in ("issue_width", "num_math_units", "num_sfu_units",
                     "num_ldst_units", "num_branch_units"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

    @property
    def dram_bandwidth_bytes_per_cycle(self) -> float:
        return self.dram_bandwidth_gbps / self.frequency_ghz

    @property
    def num_frames(self) -> int:
        return self.gpu_memory_bytes // 4096

    def with_(self, **kwargs) -> "GPUConfig":
        """Return a modified copy (e.g. ``config.with_(num_sms=8)``)."""
        return replace(self, **kwargs)

    def time_scaled(self, time_scale: float) -> "GPUConfig":
        """Scale the microsecond-range handler constants (see
        :meth:`InterconnectConfig.scaled` and :func:`time_scaled_system`)."""
        return replace(
            self,
            gpu_handler_latency=self.gpu_handler_latency / time_scale,
            gpu_handler_serial=self.gpu_handler_serial / time_scale,
            context_switch_fixed=self.context_switch_fixed / time_scale,
            time_scale=time_scale,
        )

    def blocks_per_sm(self, kernel, block_dim: int) -> int:
        """SM occupancy in thread blocks for ``kernel`` at ``block_dim``.

        Limited by the thread-block slots, warp slots, register file and
        shared memory — the quantity that makes *lbm*-like kernels run at
        low occupancy and therefore depend on ILP.
        """
        warps_per_block = (block_dim + 31) // 32
        regs_bytes = kernel.regs_per_thread * 4 * block_dim
        limits = [
            self.max_tbs_per_sm,
            self.max_warps_per_sm // warps_per_block,
            self.register_file_bytes // regs_bytes,
        ]
        if kernel.smem_bytes_per_block:
            limits.append(self.shared_mem_bytes // kernel.smem_bytes_per_block)
        occupancy = min(limits)
        if occupancy < 1:
            raise ValueError(
                f"kernel {kernel.name!r} does not fit on an SM "
                f"(regs {kernel.regs_per_thread}, block {block_dim})"
            )
        return occupancy

    def table1(self) -> Dict[str, str]:
        """Render the configuration as the rows of Table 1."""
        return {
            "Frequency": f"{self.frequency_ghz:g}GHz",
            "Max TBs": str(self.max_tbs_per_sm),
            "Max Warps": str(self.max_warps_per_sm),
            "Register File": f"{self.register_file_bytes // 1024}KB",
            "Shared memory": f"{self.shared_mem_bytes // 1024}KB",
            "Issue ways": f"{self.issue_width} instructions total from 1 or 2 warps",
            "Backend units": (
                f"{self.num_math_units} math, {self.num_sfu_units} special func, "
                f"{self.num_ldst_units} ld/st, {self.num_branch_units} branch"
            ),
            "L1 cache": (
                f"{self.l1_size // 1024}KB / {self.l1_assoc}-way LRU / "
                f"{self.line_size}B line, {self.l1_mshrs} MSHRs / "
                f"{self.l1_latency} clk latency / virtual"
            ),
            "L1 TLB": f"{self.l1_tlb_entries} entries / {self.l1_tlb_assoc}-way LRU",
            "Number of SMs": str(self.num_sms),
            "L2 cache": (
                f"{self.l2_size // 1024 // 1024}MB / {self.l2_assoc}-way LRU / "
                f"{self.line_size}B line, {self.l2_latency} clk latency / "
                f"{self.l2_mshrs} MSHRs"
            ),
            "L2 TLB": (
                f"{self.l2_tlb_entries} entries / {self.l2_tlb_assoc}-way LRU, "
                f"{self.l2_tlb_mshrs} MSHRs / {self.l2_tlb_latency} clk latency"
            ),
            "Number of PT walkers": str(self.num_walkers),
            "Walking latency": f"{self.walk_latency} clk",
            "DRAM bandwidth": f"{self.dram_bandwidth_gbps:g} GB/s",
            "DRAM latency": f"{self.dram_latency} clk",
        }


DEFAULT_CONFIG = GPUConfig()

#: the divisor every experiment applies to the paper's microsecond
#: constants: Figs. 12-14, serve requests, chaos campaigns, model-checking
#: scenarios and the golden cases (see :meth:`InterconnectConfig.scaled`)
DEFAULT_TIME_SCALE = 8.0


def time_scaled_system(
    config: Optional[GPUConfig] = None,
    interconnect: Union[str, InterconnectConfig] = "nvlink",
    time_scale: Optional[float] = None,
) -> Tuple[GPUConfig, InterconnectConfig]:
    """The GPU config and the link one run uses.

    ``interconnect`` is a name from :data:`INTERCONNECTS` or a config.  A
    ``time_scale`` divides the GPU's handler constants and the link's
    costs together: scaling one without the other leaves the fault costs
    out of the paper's ratios.  ``None`` returns both as given; it never
    means "scale by 1", which would reset ``config.time_scale``, the
    divisor of the block-switch cost.
    """
    config = config if config is not None else GPUConfig()
    if isinstance(interconnect, str):
        interconnect = INTERCONNECTS[interconnect]
    if time_scale is None:
        return config, interconnect
    return config.time_scaled(time_scale), interconnect.scaled(time_scale)
