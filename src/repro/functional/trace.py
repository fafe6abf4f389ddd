"""Dynamic trace records produced by the functional simulator.

The timing simulator (paper Section 5.1: "It consumes dynamic instruction and
memory traces generated by an execution-driven functional simulator") replays
these records through the SM pipeline model.  A :class:`TraceInst` carries
everything timing needs: the static instruction (opcode, operands for
scoreboarding), the byte address each active lane touches (for the
coalescer/TLB/cache) and the active-lane count.  The addresses of one record
are an int64 buffer (``array('q')``), built straight from the interpreter's
lane-address vector: 352 bytes for a full warp, against 1,320 for a tuple of
Python ints.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import List, Optional

from repro.isa import Instruction, Opcode


@dataclass
class TraceInst:
    """One dynamically executed warp instruction."""

    # ``_coal`` is not a dataclass field: it lazily caches this record's
    # coalescing result (repro.mem.coalescer.coalesce_inst).
    __slots__ = ("pc", "inst", "active", "addresses", "_coal")

    pc: int
    inst: Instruction
    active: int  # number of active lanes
    #: byte address per active lane (int64, ``array('q')``) of a memory
    #: instruction; ``None`` for the others
    addresses: Optional[array]

    @property
    def op(self) -> Opcode:
        return self.inst.op


@dataclass
class WarpTrace:
    """The full dynamic instruction stream of one warp."""

    warp_id: int  # warp index within the block
    instructions: List[TraceInst] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    def append(self, rec: TraceInst) -> None:
        self.instructions.append(rec)


@dataclass
class BlockTrace:
    """Traces of all warps of one thread block.

    ``kernel_id`` identifies the launch this block belongs to when several
    kernels are resident at once (multi-stream runs, docs/CONCURRENCY.md);
    single-kernel launches leave it at 0.
    """

    block_id: int
    warps: List[WarpTrace] = field(default_factory=list)
    kernel_id: int = 0

    def dynamic_instructions(self) -> int:
        return sum(len(w) for w in self.warps)


@dataclass
class KernelTrace:
    """The complete dynamic trace of one kernel launch."""

    kernel_name: str
    grid_dim: int
    block_dim: int
    blocks: List[BlockTrace] = field(default_factory=list)

    def dynamic_instructions(self) -> int:
        return sum(b.dynamic_instructions() for b in self.blocks)
