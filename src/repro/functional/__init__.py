"""Execution-driven functional SIMT simulator and dynamic traces."""

from .interpreter import (
    WARP_SIZE,
    FunctionalError,
    Interpreter,
    Launch,
    TrapRaised,
    WarpState,
)
from .trace import BlockTrace, KernelTrace, WarpTrace

__all__ = [
    "WARP_SIZE",
    "FunctionalError",
    "Interpreter",
    "Launch",
    "TrapRaised",
    "WarpState",
    "BlockTrace",
    "KernelTrace",
    "WarpTrace",
]
