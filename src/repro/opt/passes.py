"""Kernel transformation passes for this paper's trade space.

``rename_war_registers``
    Eliminates WAR hazards on the *address registers of global-memory
    instructions* by renaming the overwriting definition to a fresh
    register.  The replay-queue scheme (Approach 2) pays for exactly these
    hazards (sources are released only after the last TLB check); renaming
    trades register pressure — and therefore potentially occupancy — for
    that stall, which is the software-side ablation of the paper's
    hardware operand log.
"""

from __future__ import annotations

import dataclasses
from typing import Set, Tuple

from repro.isa import Instruction, Kernel, Reg

from .cfg import Cfg
from .liveness import Liveness


def _clone_kernel(kernel: Kernel) -> Kernel:
    return Kernel(
        name=kernel.name,
        instructions=[dataclasses.replace(i) for i in kernel.instructions],
        regs_per_thread=kernel.regs_per_thread,
        smem_bytes_per_block=kernel.smem_bytes_per_block,
    )


# ---------------------------------------------------------------------------
# WAR-eliminating register renaming
# ---------------------------------------------------------------------------

def rename_war_registers(
    kernel: Kernel, extra_regs: int = 16
) -> Tuple[Kernel, int]:
    """Rename definitions that overwrite a register still needed as a
    global-memory instruction's source, using up to ``extra_regs`` fresh
    registers.  Renaming is per basic block and only when the renamed
    value's live range is contained in the block (safe without SSA).

    Returns ``(new_kernel, renamed_count)``.  The new kernel's
    ``regs_per_thread`` grows by the registers actually used — the register
    pressure the paper's operand log avoids paying.
    """
    current = _clone_kernel(kernel)
    cfg = Cfg(current)
    live = Liveness(cfg)
    base_reg = current.regs_per_thread
    next_fresh = base_reg
    max_fresh = base_reg + extra_regs
    renamed = 0

    for block in cfg.blocks:
        pcs = list(block.pcs())
        mem_src_live: Set[int] = set()  # regs sourced by a recent memory op
        for i, pc in enumerate(pcs):
            inst = cfg.instruction(pc)
            conflict = [
                d for d in inst.reg_dests()
                if d in mem_src_live
            ]
            if (
                conflict
                and next_fresh < max_fresh
                and inst.guard is None
                and not inst.info.is_control
            ):
                old = conflict[0]
                # live range must be contained in the block: the renamed
                # value must not be live out of the block
                if old not in live.live_out[block.index] or _redefined_later(
                    cfg, pcs[i + 1:], old
                ):
                    new = next_fresh
                    if _rename_from(cfg, current, pcs[i:], old, new):
                        next_fresh += 1
                        renamed += 1
                        inst = cfg.instruction(pc)  # re-fetch: dest renamed
            mem_src_live -= set(inst.reg_dests())
            if inst.info.can_fault:
                mem_src_live |= set(inst.reg_srcs())
    current.regs_per_thread = max(base_reg, next_fresh)
    current.validate()
    return current, renamed


def _redefined_later(cfg: Cfg, pcs, reg: int) -> bool:
    for pc in pcs:
        inst = cfg.instruction(pc)
        if reg in inst.reg_dests() and inst.guard is None:
            return True
    return False


def _rename_from(cfg: Cfg, kernel: Kernel, pcs, old: int, new: int) -> bool:
    """Rename the def of ``old`` at ``pcs[0]`` and its uses up to (not
    including) the next redefinition.  Returns False if unsafe."""
    first = kernel.instructions[pcs[0]]
    kernel.instructions[pcs[0]] = _replace_dest(first, old, new)
    for pc in pcs[1:]:
        inst = kernel.instructions[pc]
        if old in inst.reg_srcs():
            kernel.instructions[pc] = _replace_srcs(inst, old, new)
            inst = kernel.instructions[pc]
        if old in inst.reg_dests() and inst.guard is None:
            return True  # redefinition: live range closed
    return True


def _replace_dest(inst: Instruction, old: int, new: int) -> Instruction:
    dest = Reg(new) if isinstance(inst.dest, Reg) and inst.dest.index == old \
        else inst.dest
    return dataclasses.replace(inst, dest=dest)


def _replace_srcs(inst: Instruction, old: int, new: int) -> Instruction:
    srcs = tuple(
        Reg(new) if isinstance(s, Reg) and s.index == old else s
        for s in inst.srcs
    )
    return dataclasses.replace(inst, srcs=srcs)

