"""System-level assembly: configuration, fault routing, TB scheduling, GPU."""

from .config import (
    DEFAULT_CONFIG,
    INTERCONNECTS,
    NVLINK,
    PCIE,
    US,
    GPUConfig,
    InterconnectConfig,
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
)
from .tb_scheduler import MultiKernelScheduler

__all__ = [
    "DEFAULT_CONFIG",
    "INTERCONNECTS",
    "NVLINK",
    "PAGING_MODES",
    "PCIE",
    "US",
    "GPUConfig",
    "InterconnectConfig",
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
]
