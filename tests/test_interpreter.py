"""Functional-simulator tests: semantics of every instruction family,
divergence, predication, barriers, atomics, device malloc, tracing."""

import numpy as np
import pytest

from repro.functional import (
    FunctionalError,
    Interpreter,
    Launch,
    TrapRaised,
)
from repro.isa import Imm, KernelBuilder, Opcode, P, R, Special, SReg
from repro.vm import AddressSpace, DeviceHeap, SegmentKind, SparseMemory

OUT = 0x100000


def run_kernel(build, grid=1, block=32, params=(), memory=None, heap=None):
    kb = KernelBuilder("t", regs_per_thread=32)
    build(kb)
    kb.exit()
    kernel = kb.build()
    mem = memory if memory is not None else SparseMemory()
    interp = Interpreter(memory=mem, heap=heap)
    trace = interp.run(Launch(kernel, grid, block, params=list(params)))
    return mem, trace


def out_values(mem, count, base=OUT):
    return mem.read_array(base, count)


def global_memory_instructions(trace):
    """How many warp-level instructions in ``trace`` can fault."""
    return sum(
        1 for b in trace.blocks for w in b.warps for t in w.instructions
        if t.inst.info.can_fault
    )


def touched_pages(trace):
    """The virtual page numbers ``trace``'s global accesses reference."""
    return {
        a >> 12
        for b in trace.blocks for w in b.warps for t in w.instructions
        if t.addresses is not None and t.inst.info.can_fault
        for a in t.addresses
    }


def store_per_thread(kb, value_reg):
    kb.global_thread_id(R(30))
    kb.imad(R(31), R(30), Imm(4), Imm(OUT))
    kb.st_global(R(31), value_reg)


class TestAluSemantics:
    @pytest.mark.parametrize(
        "emit,expect",
        [
            (lambda kb: kb.iadd(R(1), Imm(3), Imm(4)), 7),
            (lambda kb: kb.isub(R(1), Imm(3), Imm(4)), -1),
            (lambda kb: kb.imul(R(1), Imm(3), Imm(4)), 12),
            (lambda kb: kb.imad(R(1), Imm(3), Imm(4), Imm(5)), 17),
            (lambda kb: kb.imin(R(1), Imm(3), Imm(4)), 3),
            (lambda kb: kb.imax(R(1), Imm(3), Imm(4)), 4),
            (lambda kb: kb.shl(R(1), Imm(3), Imm(2)), 12),
            (lambda kb: kb.shr(R(1), Imm(12), Imm(2)), 3),
            (lambda kb: kb.and_(R(1), Imm(12), Imm(10)), 8),
            (lambda kb: kb.or_(R(1), Imm(12), Imm(10)), 14),
            (lambda kb: kb.xor(R(1), Imm(12), Imm(10)), 6),
            (lambda kb: kb.fadd(R(1), Imm(1.5), Imm(2.25)), 3.75),
            (lambda kb: kb.fsub(R(1), Imm(1.5), Imm(2.25)), -0.75),
            (lambda kb: kb.fmul(R(1), Imm(1.5), Imm(2.0)), 3.0),
            (lambda kb: kb.ffma(R(1), Imm(1.5), Imm(2.0), Imm(1.0)), 4.0),
            (lambda kb: kb.fmin(R(1), Imm(1.5), Imm(2.0)), 1.5),
            (lambda kb: kb.fmax(R(1), Imm(1.5), Imm(2.0)), 2.0),
        ],
    )
    def test_binop(self, emit, expect):
        def build(kb):
            emit(kb)
            store_per_thread(kb, R(1))

        mem, _ = run_kernel(build)
        assert out_values(mem, 32) == [pytest.approx(expect)] * 32

    def test_sfu_ops(self):
        def build(kb):
            kb.mov(R(0), Imm(4.0))
            kb.fsqrt(R(1), R(0))
            kb.frsqrt(R(2), R(0))
            kb.fdiv(R(3), Imm(1.0), R(0))
            kb.fexp(R(4), Imm(0.0))
            kb.flog(R(5), Imm(np.e))
            kb.fadd(R(6), R(1), R(2))
            kb.fadd(R(6), R(6), R(3))
            kb.fadd(R(6), R(6), R(4))
            kb.fadd(R(6), R(6), R(5))
            store_per_thread(kb, R(6))

        mem, _ = run_kernel(build)
        # sqrt(4)+rsqrt(4)+1/4+exp(0)+log(e) = 2+0.5+0.25+1+1
        assert out_values(mem, 32) == [pytest.approx(4.75)] * 32

    def test_sin_cos(self):
        def build(kb):
            kb.fsin(R(1), Imm(0.0))
            kb.fcos(R(2), Imm(0.0))
            kb.fadd(R(3), R(1), R(2))
            store_per_thread(kb, R(3))

        mem, _ = run_kernel(build)
        assert out_values(mem, 32) == [pytest.approx(1.0)] * 32

    def test_division_by_zero_yields_zero(self):
        """FDIV by zero must not crash; the approximate SFU returns 0."""

        def build(kb):
            kb.fdiv(R(1), Imm(5.0), Imm(0.0))
            store_per_thread(kb, R(1))

        mem, _ = run_kernel(build)
        assert out_values(mem, 32) == [0.0] * 32

    def test_i2f_f2i(self):
        def build(kb):
            kb.f2i(R(1), Imm(3.7))
            kb.i2f(R(2), R(1))
            store_per_thread(kb, R(2))

        mem, _ = run_kernel(build)
        assert out_values(mem, 32) == [3.0] * 32

    def test_sel(self):
        def build(kb):
            kb.mov(R(0), SReg(Special.LANE))
            kb.isetp(P(0), "lt", R(0), Imm(16))
            kb.sel(R(1), P(0), Imm(7.0), Imm(9.0))
            store_per_thread(kb, R(1))

        mem, _ = run_kernel(build)
        assert out_values(mem, 32) == [7.0] * 16 + [9.0] * 16


class TestSpecialRegisters:
    def test_tid_ctaid_lane(self):
        def build(kb):
            kb.mov(R(0), SReg(Special.TID))
            kb.mov(R(1), SReg(Special.CTAID))
            kb.imad(R(2), R(1), SReg(Special.NTID), R(0))  # == gid
            store_per_thread(kb, R(2))

        mem, _ = run_kernel(build, grid=2, block=64)
        assert out_values(mem, 128) == [float(i) for i in range(128)]

    def test_nctaid_and_warpid(self):
        def build(kb):
            kb.mov(R(0), SReg(Special.NCTAID))
            kb.imad(R(1), R(0), Imm(100), SReg(Special.WARPID))
            store_per_thread(kb, R(1))

        mem, _ = run_kernel(build, grid=3, block=64)
        vals = out_values(mem, 64)
        assert vals[:32] == [300.0] * 32  # warp 0
        assert vals[32:] == [301.0] * 32  # warp 1


class TestComparisons:
    @pytest.mark.parametrize(
        "cmp,expected",
        [
            ("lt", [1.0] * 5 + [0.0] * 27),
            ("le", [1.0] * 6 + [0.0] * 26),
            ("gt", [0.0] * 6 + [1.0] * 26),
            ("ge", [0.0] * 5 + [1.0] * 27),
            ("eq", [0.0] * 5 + [1.0] + [0.0] * 26),
            ("ne", [1.0] * 5 + [0.0] + [1.0] * 26),
        ],
    )
    def test_isetp(self, cmp, expected):
        def build(kb):
            kb.mov(R(0), SReg(Special.LANE))
            kb.isetp(P(0), cmp, R(0), Imm(5))
            kb.sel(R(1), P(0), Imm(1.0), Imm(0.0))
            store_per_thread(kb, R(1))

        mem, _ = run_kernel(build)
        assert out_values(mem, 32) == expected

    def test_bad_comparison_rejected(self):
        def build(kb):
            inst = kb.isetp(P(0), "lt", R(0), Imm(1))
            inst.cmp = "bogus"
            store_per_thread(kb, R(0))

        with pytest.raises(FunctionalError, match="comparison"):
            run_kernel(build)


class TestPredication:
    def test_guarded_instruction_masks_lanes(self):
        def build(kb):
            kb.mov(R(0), SReg(Special.LANE))
            kb.isetp(P(0), "lt", R(0), Imm(8))
            kb.mov(R(1), Imm(5.0))
            kb.mov(R(1), Imm(9.0), guard=P(0))
            store_per_thread(kb, R(1))

        mem, _ = run_kernel(build)
        assert out_values(mem, 32) == [9.0] * 8 + [5.0] * 24

    def test_negated_guard(self):
        def build(kb):
            kb.mov(R(0), SReg(Special.LANE))
            kb.isetp(P(0), "lt", R(0), Imm(8))
            kb.mov(R(1), Imm(5.0))
            kb.mov(R(1), Imm(9.0), guard=P(0), guard_negate=True)
            store_per_thread(kb, R(1))

        mem, _ = run_kernel(build)
        assert out_values(mem, 32) == [5.0] * 8 + [9.0] * 24


class TestMemory:
    def test_load_store_roundtrip(self):
        mem = SparseMemory()
        mem.fill(0x2000, [float(i * i) for i in range(32)])

        def build(kb):
            kb.mov(R(0), SReg(Special.LANE))
            kb.imad(R(1), R(0), Imm(4), Imm(0x2000))
            kb.ld_global(R(2), R(1))
            kb.fadd(R(2), R(2), Imm(1.0))
            store_per_thread(kb, R(2))

        mem, _ = run_kernel(build, memory=mem)
        assert out_values(mem, 32) == [float(i * i + 1) for i in range(32)]

    def test_shared_memory_private_per_block(self):
        def build(kb):
            kb.mov(R(0), SReg(Special.TID))
            kb.shl(R(1), R(0), Imm(2))
            kb.mov(R(2), SReg(Special.CTAID))
            kb.st_shared(R(1), R(2))
            kb.bar()
            # read neighbour's slot (tid ^ 1)
            kb.xor(R(3), R(0), Imm(1))
            kb.shl(R(4), R(3), Imm(2))
            kb.ld_shared(R(5), R(4))
            store_per_thread(kb, R(5))

        mem, _ = run_kernel(build, grid=2, block=32)
        assert out_values(mem, 64) == [0.0] * 32 + [1.0] * 32

    def test_store_width8(self):
        def build(kb):
            kb.mov(R(0), SReg(Special.LANE))
            kb.imad(R(1), R(0), Imm(8), Imm(OUT))
            kb.st_global(R(1), R(0), width=8)

        mem, _ = run_kernel(build)
        assert mem.load(OUT + 8 * 5) == 5

    def test_atomics_accumulate_across_lanes(self):
        def build(kb):
            kb.mov(R(1), Imm(OUT))
            kb.atom_global(R(2), R(1), Imm(1.0), atom="add")

        mem, _ = run_kernel(build, grid=2, block=64)
        assert mem.load(OUT) == 128.0

    def test_atomic_returns_old_value(self):
        def build(kb):
            kb.mov(R(1), Imm(0x3000))
            kb.atom_global(R(2), R(1), Imm(1.0), atom="add")
            store_per_thread(kb, R(2))

        mem, _ = run_kernel(build, block=32)
        # lanes execute the atomic in order: old values are 0..31
        assert sorted(out_values(mem, 32)) == [float(i) for i in range(32)]

    def test_atomic_max(self):
        def build(kb):
            kb.mov(R(0), SReg(Special.LANE))
            kb.mov(R(1), Imm(0x3000))
            kb.atom_global(R(2), R(1), R(0), atom="max")

        mem, _ = run_kernel(build)
        assert mem.load(0x3000) == 31


class TestBarriers:
    def test_barrier_orders_shared_memory(self):
        """Warp 1 must observe warp 0's writes made before the barrier."""

        def build(kb):
            kb.mov(R(0), SReg(Special.TID))
            kb.shl(R(1), R(0), Imm(2))
            kb.st_shared(R(1), R(0))
            kb.bar()
            # read the slot of the thread 32 positions away (other warp)
            kb.xor(R(2), R(0), Imm(32))
            kb.shl(R(3), R(2), Imm(2))
            kb.ld_shared(R(4), R(3))
            store_per_thread(kb, R(4))

        mem, _ = run_kernel(build, block=64)
        expect = [float(i ^ 32) for i in range(64)]
        assert out_values(mem, 64) == expect


class TestMallocFree:
    def test_malloc_returns_heap_addresses(self):
        heap = DeviceHeap(base=1 << 40, size=1 << 20, num_arenas=2)

        def build(kb):
            kb.malloc(R(1), Imm(64))
            kb.st_global(R(1), Imm(7.0))
            kb.ld_global(R(2), R(1))
            store_per_thread(kb, R(2))

        mem, _ = run_kernel(build, block=32, heap=heap)
        assert out_values(mem, 32) == [7.0] * 32
        assert heap.bytes_live() == 32 * 64

    def test_free_recycles(self):
        heap = DeviceHeap(base=1 << 40, size=1 << 20, num_arenas=1)

        def build(kb):
            kb.malloc(R(1), Imm(64))
            kb.free(R(1))
            kb.malloc(R(2), Imm(64))
            kb.free(R(2))

        run_kernel(build, block=32, heap=heap)
        assert heap.bytes_live() == 0

    def test_malloc_without_heap_fails(self):
        def build(kb):
            kb.malloc(R(1), Imm(64))

        with pytest.raises(FunctionalError, match="heap"):
            run_kernel(build)


class TestTrap:
    def test_trap_raises(self):
        def build(kb):
            kb.trap()

        with pytest.raises(TrapRaised):
            run_kernel(build)

    def test_guarded_trap_with_no_active_lanes_is_noop(self):
        def build(kb):
            kb.isetp(P(0), "lt", SReg(Special.LANE), Imm(0))
            kb.trap(guard=P(0))
            store_per_thread(kb, R(0))

        run_kernel(build)  # must not raise


class TestLaunchValidation:
    def test_block_dim_must_be_warp_multiple(self):
        kb = KernelBuilder("k")
        kb.exit()
        with pytest.raises(ValueError):
            Launch(kb.build(), grid_dim=1, block_dim=33)

    def test_grid_dim_positive(self):
        kb = KernelBuilder("k")
        kb.exit()
        with pytest.raises(ValueError):
            Launch(kb.build(), grid_dim=0, block_dim=32)

    def test_missing_param_reported(self):
        def build(kb):
            kb.mov(R(0), kb.param(3))
            store_per_thread(kb, R(0))

        with pytest.raises(FunctionalError, match="param"):
            run_kernel(build, params=[1.0])


class TestTrace:
    def test_trace_records_memory_addresses(self):
        def build(kb):
            kb.mov(R(0), SReg(Special.LANE))
            kb.imad(R(1), R(0), Imm(4), Imm(0x4000))
            kb.ld_global(R(2), R(1))
            store_per_thread(kb, R(2))

        _, trace = run_kernel(build)
        loads = [
            t
            for w in trace.blocks[0].warps
            for t in w.instructions
            if t.op is Opcode.LD_GLOBAL
        ]
        assert len(loads) == 1
        assert loads[0].addresses.tolist() == [0x4000 + 4 * i for i in range(32)]
        assert loads[0].active == 32

    def test_trace_counts(self):
        def build(kb):
            kb.iadd(R(1), Imm(1), Imm(2))
            store_per_thread(kb, R(1))

        _, trace = run_kernel(build, grid=2, block=64)
        assert len(trace.blocks) == 2
        assert trace.dynamic_instructions() > 0
        assert global_memory_instructions(trace) == 4  # 1 store/warp

    def test_touched_pages(self):
        def build(kb):
            kb.mov(R(1), Imm(0x8000))
            kb.st_global(R(1), Imm(1.0))

        _, trace = run_kernel(build)
        assert touched_pages(trace) == {0x8000 >> 12}

    def test_instruction_budget(self):
        kb = KernelBuilder("spin")
        kb.mov(R(0), Imm(0))
        top = kb.label("top")
        kb.bind(top)
        kb.iadd(R(0), R(0), Imm(1))
        kb.bra(top)
        kb.exit()
        kernel = kb.build()
        interp = Interpreter(max_dynamic_instructions=1000)
        with pytest.raises(FunctionalError, match="budget"):
            interp.run(Launch(kernel, 1, 32))
