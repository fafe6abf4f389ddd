"""Static-instruction decode memoization (hot-loop overhaul).

The issue stage needs a handful of facts per static instruction (unit,
latency, faultability, operand scoreboard bitmasks, ...).  Computing them
involves enum-keyed dict lookups and operand-tuple construction — cheap
once, hot when repeated on every *issue attempt*.  ``decode`` computes the
facts once and caches the tuple on the instruction itself;
``predecode_trace`` builds a launch's decode table, one tuple per pc, from
which each warp's per-record decode list is indexed by its pc column, so
the simulator's issue loop only ever reads.  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

from repro.isa import Opcode, Unit
from repro.isa.registers import NUM_PRED

_UNIT_IDX = {Unit.MATH: 0, Unit.SFU: 1, Unit.LDST: 2, Unit.BRANCH: 3}

#: Scoreboard bit layout: predicate Pn is bit n, register Rn is bit
#: ``GPR_BIT0 + n`` — predicates low keep small kernels' masks small ints.
GPR_BIT0 = NUM_PRED


def operand_bits(inst):
    """Scoreboard bits of ``inst``'s operands: ``(source mask, destination
    mask, source bits with repeats)``.  The repeats matter because each
    read is counted: ``FMUL R3, R1, R1`` holds R1 twice until released."""
    src_bits = tuple(1 << (GPR_BIT0 + r) for r in inst.reg_srcs()) + tuple(
        1 << p for p in inst.pred_srcs()
    )
    dst = 0
    for r in inst.reg_dests():
        dst |= 1 << (GPR_BIT0 + r)
    for p in inst.pred_dests():
        dst |= 1 << p
    src = 0
    for b in src_bits:
        src |= b
    return src, dst, src_bits


def mask_names(mask: int) -> list:
    """Register names of a scoreboard mask, e.g. ``["P1", "R5"]``."""
    return [
        f"P{b}" if b < GPR_BIT0 else f"R{b - GPR_BIT0}"
        for b in range(mask.bit_length())
        if mask >> b & 1
    ]


def decode(inst):
    """Return the decode tuple for ``inst``, caching it on ``inst._dec``.

    Tuple layout (indices are what the issue loop reads):
    0 unit index, 1 latency, 2 can_fault, 3 is_store, 4 is_control,
    5 is BAR, 6 is atomic, 7 may raise an arithmetic exception (FDIV),
    8 source mask, 9 destination mask, 10 source bits with repeats
    (:func:`operand_bits`), 11 the opcode (for event names).
    """
    try:
        return inst._dec
    except AttributeError:
        info = inst.info
        dec = (
            _UNIT_IDX[info.unit],  # 0: unit index
            info.latency,  # 1
            info.can_fault,  # 2
            info.is_store,  # 3
            info.is_control,  # 4
            inst.op is Opcode.BAR,  # 5
            inst.op is Opcode.ATOM_GLOBAL,  # 6: atomic (completes like a load)
            inst.op is Opcode.FDIV,  # 7: may raise an arithmetic exception
        ) + operand_bits(inst) + (inst.op,)  # 8-10: scoreboard masks
        inst._dec = dec
        return dec


def predecode_trace(kernel) -> list:
    """The decode table of one launch of ``kernel``: its decode tuple per
    pc.  A trace record's decode is ``table[pc]``, so a warp's decode list
    is its pc column mapped through the table, with no per-record decode
    call."""
    return [decode(inst) for inst in kernel.instructions]
