"""System-level assembly: configuration, fault routing, TB scheduling, GPU."""

from .config import (
    DEFAULT_CONFIG,
    DEFAULT_TIME_SCALE,
    INTERCONNECTS,
    NVLINK,
    PCIE,
    US,
    GPUConfig,
    InterconnectConfig,
    time_scaled_system,
)
from .faults import FaultController, FaultOutcome, FaultStats, InvalidAccessError
from .gpu import (
    PAGING_MODES,
    DeadlockError,
    GpuSimulator,
    MultiKernelResult,
    MultiKernelSimulator,
    SimResult,
    StreamKernelResult,
    StreamLaunch,
    architectural_digest,
)
from .tb_scheduler import MultiKernelScheduler

__all__ = [
    "DEFAULT_CONFIG",
    "DEFAULT_TIME_SCALE",
    "INTERCONNECTS",
    "NVLINK",
    "PAGING_MODES",
    "PCIE",
    "US",
    "GPUConfig",
    "InterconnectConfig",
    "time_scaled_system",
    "FaultController",
    "FaultOutcome",
    "FaultStats",
    "InvalidAccessError",
    "DeadlockError",
    "GpuSimulator",
    "MultiKernelResult",
    "MultiKernelScheduler",
    "MultiKernelSimulator",
    "SimResult",
    "StreamKernelResult",
    "StreamLaunch",
    "architectural_digest",
]
