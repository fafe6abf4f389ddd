"""Instruction and program representation.

An :class:`Instruction` is a static (pre-execution) entity; the functional
simulator's dynamic trace records (:mod:`repro.functional.trace`) name it
by its pc.  Instructions support guarding by a predicate register (``@P0`` /
``@!P0`` style), the idiom GPU compilers use for short divergent regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .opcodes import Opcode, OpInfo, op_info
from .registers import Imm, Pred, Reg, SReg


@dataclass
class Instruction:
    """One static instruction.

    Attributes:
        op: the opcode.
        dest: destination operand (``Reg`` or ``Pred``) or ``None``.
        srcs: source operands (``Reg``/``Pred``/``Imm``/``SReg``).
        guard: optional guard predicate; when set, lanes whose predicate
            value (xor ``guard_negate``) is false are masked off.
        target: branch target pc (``BRA``).
        reconv: reconvergence pc for potentially divergent branches; filled
            in by the assembler from structured-control-flow labels.
        offset: immediate byte offset added to the address register of
            memory instructions.
        width: access width in bytes for memory instructions (4 or 8).
        cmp: comparison operator for ``ISETP``/``FSETP``
            (one of ``lt le gt ge eq ne``).
        atom: atomic operation for ``ATOM_GLOBAL`` (``add``, ``max``,
            ``exch``, ``cas``).
    """

    op: Opcode
    dest: Optional[object] = None
    srcs: Sequence[object] = field(default_factory=tuple)
    guard: Optional[Pred] = None
    guard_negate: bool = False
    target: Optional[int] = None
    reconv: Optional[int] = None
    offset: int = 0
    width: int = 4
    cmp: Optional[str] = None
    atom: Optional[str] = None

    @property
    def info(self) -> OpInfo:
        return op_info(self.op)

    def reg_dests(self) -> tuple:
        """Destination GPRs written by this instruction (for scoreboarding)."""
        if isinstance(self.dest, Reg):
            return (self.dest.index,)
        return ()

    def reg_srcs(self) -> tuple:
        """Source GPRs read by this instruction (for scoreboarding)."""
        out = []
        for src in self.srcs:
            if isinstance(src, Reg):
                out.append(src.index)
        return tuple(out)

    def pred_dests(self) -> tuple:
        if isinstance(self.dest, Pred):
            return (self.dest.index,)
        return ()

    def pred_srcs(self) -> tuple:
        out = [s.index for s in self.srcs if isinstance(s, Pred)]
        if self.guard is not None:
            out.append(self.guard.index)
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        guard = ""
        if self.guard is not None:
            guard = f"@{'!' if self.guard_negate else ''}{self.guard} "
        dest = f"{self.dest} <- " if self.dest is not None else ""
        srcs = ", ".join(repr(s) for s in self.srcs)
        extra = ""
        if self.op is Opcode.BRA:
            extra = f" ->{self.target}"
        return f"{guard}{dest}{self.op.value} {srcs}{extra}"


def uses_global_memory(inst: Instruction) -> bool:
    """True when ``inst`` accesses the translated global address space and
    can therefore raise a page fault."""
    return inst.info.can_fault


__all__ = ["Instruction", "uses_global_memory", "Imm", "Reg", "Pred", "SReg"]
