"""Compiler-layer tests: CFG construction, liveness, and the
WAR-eliminating register renaming ablation."""

import pytest

from repro.functional import Interpreter, Launch
from repro.isa import Imm, KernelBuilder, Opcode, P, R, Special, SReg
from repro.opt import Cfg, Liveness, rename_war_registers, uses_defs
from repro.vm import SparseMemory

OUT = 0x100000


def count_memory_war_hazards(kernel) -> int:
    """WAR hazards where the pending reader is a global-memory instruction —
    the hazards the replay-queue scheme turns into issue stalls."""
    count = 0
    cfg = Cfg(kernel)
    for block in cfg.blocks:
        pending_mem_srcs = {}  # reg -> pc of memory reader
        for pc in block.pcs():
            inst = cfg.instruction(pc)
            for dest in inst.reg_dests():
                if dest in pending_mem_srcs:
                    count += 1
                    del pending_mem_srcs[dest]
            if inst.info.can_fault:
                for src in inst.reg_srcs():
                    pending_mem_srcs[src] = pc
        # block boundary clears the window (issue distance is large)
    return count


def straightline():
    kb = KernelBuilder("s", regs_per_thread=16)
    kb.mov(R(0), Imm(1.0))
    kb.fadd(R(1), R(0), Imm(2.0))
    kb.global_thread_id(R(2))
    kb.imad(R(3), R(2), Imm(4), Imm(OUT))
    kb.st_global(R(3), R(1))
    kb.exit()
    return kb.build()


def branchy():
    kb = KernelBuilder("b", regs_per_thread=16)
    kb.mov(R(0), SReg(Special.LANE))
    kb.isetp(P(0), "lt", R(0), Imm(16))
    with kb.if_else(P(0)) as orelse:
        kb.mov(R(1), Imm(1.0))
        orelse()
        kb.mov(R(1), Imm(2.0))
    kb.global_thread_id(R(2))
    kb.imad(R(3), R(2), Imm(4), Imm(OUT))
    kb.st_global(R(3), R(1))
    kb.exit()
    return kb.build()


def run_functional(kernel, grid=1, block=32):
    mem = SparseMemory()
    Interpreter(memory=mem).run(Launch(kernel, grid, block))
    return mem.read_array(OUT, grid * block)


class TestCfg:
    def test_straightline_single_block(self):
        cfg = Cfg(straightline())
        assert len(cfg) == 1
        assert cfg.blocks[0].successors == []

    def test_if_else_diamond(self):
        cfg = Cfg(branchy())
        # entry, then-arm, else-arm, join (+ possibly a trailing block)
        assert len(cfg) >= 4
        entry = cfg.blocks[0]
        assert len(entry.successors) == 2

    def test_block_of_pc(self):
        cfg = Cfg(branchy())
        for block in cfg.blocks:
            for pc in block.pcs():
                assert cfg.block_of(pc) is block

    def test_predecessors_consistent(self):
        cfg = Cfg(branchy())
        for block in cfg.blocks:
            for succ in block.successors:
                assert block.index in cfg.blocks[succ].predecessors


class TestLiveness:
    def test_dead_def_detected(self):
        kb = KernelBuilder("d", regs_per_thread=16)
        kb.mov(R(5), Imm(9.0))  # dead: never used
        kb.mov(R(0), Imm(1.0))
        kb.isetp(P(0), "lt", SReg(Special.LANE), Imm(16))
        with kb.if_(P(0)):
            kb.mov(R(6), Imm(2.0))
        kb.global_thread_id(R(2))
        kb.imad(R(3), R(2), Imm(4), Imm(OUT))
        kb.st_global(R(3), R(0))
        kb.exit()
        kernel = kb.build()
        cfg = Cfg(kernel)
        live = Liveness(cfg)
        assert uses_defs(kernel.instructions[0]) == (set(), {5})
        entry = cfg.block_of(0).index
        assert 0 in live.live_out[entry]  # R0 is read after the branch
        assert 5 not in live.live_out[entry]  # R5 never is

    def test_live_across_branch(self):
        kernel = branchy()
        live = Liveness(Cfg(kernel))
        # R1 is defined in both arms and used at the join: live out of arms
        join_uses = any(1 in s for s in live.live_in)
        assert join_uses

    def test_guarded_write_keeps_old_value_live(self):
        kb = KernelBuilder("g", regs_per_thread=16)
        kb.mov(R(1), Imm(1.0))
        kb.isetp(P(0), "lt", SReg(Special.LANE), Imm(8))
        with kb.if_(P(0)):
            kb.mov(R(6), Imm(3.0))
        kb.mov(R(1), Imm(2.0), guard=P(0))  # merges -> R1 is also a use
        kb.global_thread_id(R(2))
        kb.imad(R(3), R(2), Imm(4), Imm(OUT))
        kb.st_global(R(3), R(1))
        kb.exit()
        kernel = kb.build()
        cfg = Cfg(kernel)
        live = Liveness(cfg)
        (guarded,) = [
            i for i in kernel.instructions
            if i.op is Opcode.MOV and i.guard is not None
        ]
        uses, defs = uses_defs(guarded)
        assert 1 in uses and 1 in defs
        # so the first mov is NOT dead: R1 is live out of the entry block
        assert 1 in live.live_out[cfg.block_of(0).index]


class TestWarRenaming:
    def war_kernel(self):
        """The lbm pattern: loads through a reused address register."""
        kb = KernelBuilder("war", regs_per_thread=16)
        kb.global_thread_id(R(0))
        kb.imad(R(1), R(0), Imm(4), Imm(OUT))
        kb.mov(R(4), Imm(0.0))
        for d in range(3):
            kb.iadd(R(2), R(1), Imm(d * 4096))  # reused address register
            kb.ld_global(R(5 + d), R(2))
        for d in range(3):
            kb.fadd(R(4), R(4), R(5 + d))
        kb.st_global(R(1), R(4))
        kb.exit()
        return kb.build()

    def test_counts_hazards(self):
        assert count_memory_war_hazards(self.war_kernel()) == 2

    def test_renaming_removes_hazards(self):
        kernel = self.war_kernel()
        renamed, count = rename_war_registers(kernel)
        assert count == 2
        assert count_memory_war_hazards(renamed) == 0
        assert renamed.regs_per_thread == kernel.regs_per_thread + 2

    def test_renaming_preserves_semantics(self):
        kernel = self.war_kernel()
        before = run_functional(kernel)
        renamed, _ = rename_war_registers(kernel)
        assert run_functional(renamed) == before

    def test_budget_respected(self):
        kernel = self.war_kernel()
        renamed, count = rename_war_registers(kernel, extra_regs=1)
        assert count == 1
        assert renamed.regs_per_thread == kernel.regs_per_thread + 1

    def test_rename_recovers_replay_queue_performance(self):
        """The ablation: renaming lbm's address registers recovers most of
        the replay-queue loss (software alternative to the operand log)."""
        from repro.core import make_scheme
        from repro.system import GpuSimulator
        from repro.workloads.parboil import Lbm

        wl = Lbm(grid_dim=16, iters=2)
        base_kernel = wl.kernel
        trace = wl.trace()

        def cycles(kernel):
            sim = GpuSimulator(
                kernel, trace, wl.make_address_space(),
                scheme=make_scheme("replay-queue"), paging="premapped",
            )
            return sim.run().cycles

        renamed, count = rename_war_registers(base_kernel, extra_regs=24)
        assert count > 0
        # NOTE: the timing simulator replays the same trace; renaming only
        # changes the static instructions' register operands, which is
        # exactly what the scoreboards see.
        plain = cycles(base_kernel)
        # rebuild trace instructions against renamed kernel: the trace holds
        # references to the original instructions, so re-trace via a clone
        wl2 = Lbm(grid_dim=16, iters=2)
        wl2._kernel = renamed
        trace2 = wl2.trace()
        sim = GpuSimulator(
            renamed, trace2, wl2.make_address_space(),
            scheme=make_scheme("replay-queue"), paging="premapped",
        )
        improved = sim.run().cycles
        assert improved < plain

