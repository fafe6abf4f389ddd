"""Backward liveness analysis over the kernel CFG.

Computes, per basic block, the sets of general-purpose registers live on
entry/exit.  Predicate registers are tracked in the same universe with an
offset so a single dataflow handles both files.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.isa import Instruction

from .cfg import Cfg

#: predicate registers are tracked at indices >= PRED_BASE
PRED_BASE = 1 << 20


def uses_defs(inst: Instruction) -> Tuple[Set[int], Set[int]]:
    """(use, def) register sets of one instruction (GPRs + offset preds)."""
    uses = set(inst.reg_srcs())
    uses.update(PRED_BASE + p for p in inst.pred_srcs())
    defs = set(inst.reg_dests())
    defs.update(PRED_BASE + p for p in inst.pred_dests())
    if inst.guard is not None:
        # a guarded write merges with the old value: the dest is also a use
        uses |= defs
    return uses, defs


class Liveness:
    """Fixed-point backward liveness over a :class:`~repro.opt.cfg.Cfg`."""

    def __init__(self, cfg: Cfg) -> None:
        self.cfg = cfg
        n = len(cfg)
        self.live_in: List[Set[int]] = [set() for _ in range(n)]
        self.live_out: List[Set[int]] = [set() for _ in range(n)]
        self._gen: List[Set[int]] = [set() for _ in range(n)]
        self._kill: List[Set[int]] = [set() for _ in range(n)]
        self._compute_local()
        self._solve()

    def _compute_local(self) -> None:
        for block in self.cfg.blocks:
            gen: Set[int] = set()
            kill: Set[int] = set()
            for pc in block.pcs():
                uses, defs = uses_defs(self.cfg.instruction(pc))
                gen |= uses - kill
                kill |= defs
            self._gen[block.index] = gen
            self._kill[block.index] = kill

    def _solve(self) -> None:
        changed = True
        while changed:
            changed = False
            for block in reversed(self.cfg.blocks):
                out: Set[int] = set()
                for succ in block.successors:
                    out |= self.live_in[succ]
                new_in = self._gen[block.index] | (out - self._kill[block.index])
                if out != self.live_out[block.index] or (
                    new_in != self.live_in[block.index]
                ):
                    self.live_out[block.index] = out
                    self.live_in[block.index] = new_in
                    changed = True

