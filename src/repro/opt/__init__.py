"""Compiler layer: CFG, liveness, and the WAR-eliminating renaming pass."""

from .cfg import BasicBlock, Cfg
from .liveness import Liveness, uses_defs
from .passes import count_memory_war_hazards, rename_war_registers

__all__ = [
    "BasicBlock",
    "Cfg",
    "Liveness",
    "uses_defs",
    "count_memory_war_hazards",
    "rename_war_registers",
]
