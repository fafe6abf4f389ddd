"""Compiler layer: CFG, liveness, and the WAR-eliminating renaming pass."""

from .cfg import BasicBlock, Cfg
from .liveness import Liveness, uses_defs
from .passes import rename_war_registers

__all__ = [
    "BasicBlock",
    "Cfg",
    "Liveness",
    "uses_defs",
    "rename_war_registers",
]
