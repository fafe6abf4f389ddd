"""Timing models of the GPU memory hierarchy (caches, TLBs, DRAM, MMU)."""

from .cache import Cache, CacheStats, Dram, DramStats
from .coalescer import coalesce, coalesce_inst
from .hierarchy import AccessResult, FaultInfo, MemorySubsystem
from .tlb import Mmu, Tlb, TlbStats, TranslationResult, WalkerPool

__all__ = [
    "Cache",
    "CacheStats",
    "Dram",
    "DramStats",
    "coalesce",
    "coalesce_inst",
    "AccessResult",
    "FaultInfo",
    "MemorySubsystem",
    "Mmu",
    "Tlb",
    "TlbStats",
    "TranslationResult",
    "WalkerPool",
]
