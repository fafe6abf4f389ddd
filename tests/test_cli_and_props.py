"""Final coverage round: the harness CLI, renaming-pass properties,
and runtime-facade edge cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.__main__ import main as harness_main
from repro.isa import Imm, KernelBuilder, Opcode, P, R
from repro.opt import Cfg, rename_war_registers
from repro.runtime import GpuDevice
from tests.test_opt import count_memory_war_hazards


class TestHarnessCli:
    def test_table1(self, capsys):
        assert harness_main(["table1"]) == 0
        assert "1GHz" in capsys.readouterr().out

    def test_diagrams(self, capsys):
        assert harness_main(["diagrams"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Figure 7" in out

    def test_single_experiment_with_workload(self, capsys):
        assert harness_main(["fig10", "--workloads", "stream-sum"]) == 0
        out = capsys.readouterr().out
        assert "stream-sum" in out and "GEOMEAN" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            harness_main(["fig99"])


def _random_straightline(ops):
    kb = KernelBuilder("p", regs_per_thread=24)
    kb.global_thread_id(R(0))
    kb.imad(R(1), R(0), Imm(4), Imm(1 << 20))
    for kind, a, b in ops:
        if kind == 0:
            kb.iadd(R(2 + a % 6), R(2 + b % 6), Imm(a))
        elif kind == 1:
            kb.fmul(R(2 + a % 6), R(2 + b % 6), Imm(1.5))
        elif kind == 2:
            kb.iadd(R(2 + a % 6), Imm(a), Imm(b))  # foldable? no: dest reg
        elif kind == 3:
            kb.ld_global(R(2 + a % 6), R(1), offset=(b % 4) * 128)
        else:
            kb.st_global(R(1), R(2 + a % 6))
    kb.st_global(R(1), R(2))
    kb.exit()
    return kb.build()


@st.composite
def op_streams(draw):
    n = draw(st.integers(1, 14))
    return [
        (draw(st.integers(0, 4)), draw(st.integers(0, 9)),
         draw(st.integers(0, 9)))
        for _ in range(n)
    ]


class TestPassProperties:
    @given(op_streams())
    @settings(max_examples=30)
    def test_renaming_never_increases_hazards(self, ops):
        kernel = _random_straightline(ops)
        before = count_memory_war_hazards(kernel)
        renamed, _ = rename_war_registers(kernel)
        assert count_memory_war_hazards(renamed) <= before

    @given(op_streams())
    @settings(max_examples=30)
    def test_cfg_partitions_all_pcs(self, ops):
        kernel = _random_straightline(ops)
        cfg = Cfg(kernel)
        covered = sorted(pc for b in cfg.blocks for pc in b.pcs())
        assert covered == list(range(len(kernel)))


class TestRuntimeEdges:
    def kernel(self):
        kb = KernelBuilder("w", regs_per_thread=12)
        kb.global_thread_id(R(0))
        kb.imad(R(1), R(0), Imm(4), kb.param(0))
        kb.st_global(R(1), Imm(1.0))
        kb.exit()
        return kb.build()

    def test_named_allocation(self):
        dev = GpuDevice()
        ptr = dev.malloc_managed(64, name="weights")
        assert ptr.name == "weights"
        with pytest.raises(Exception):
            dev.malloc_managed(64, name="weights")  # duplicate

    def test_launch_output_only_kernel(self):
        dev = GpuDevice(time_scale=8.0)
        out = dev.malloc_managed(8 * 64 * 4)
        res = dev.launch(self.kernel(), grid=8, block=64, args=[out])
        assert res.fault_stats.first_touch > 0
        assert dev.read(out, 2) == [1.0, 1.0]

    def test_scalar_args_pass_through(self):
        kb = KernelBuilder("s", regs_per_thread=12)
        kb.global_thread_id(R(0))
        kb.imad(R(1), R(0), Imm(4), kb.param(0))
        kb.st_global(R(1), kb.param(1))
        kb.exit()
        dev = GpuDevice(time_scale=8.0)
        out = dev.malloc_managed(64 * 4)
        dev.launch(kb.build(), grid=1, block=64, args=[out, 7.5])
        assert dev.read(out, 1) == [7.5]

    def test_wd_scheme_through_runtime(self):
        dev = GpuDevice(scheme="wd-lastcheck", time_scale=8.0)
        out = dev.malloc_managed(8 * 64 * 4)
        res = dev.launch(self.kernel(), grid=8, block=64, args=[out])
        assert res.cycles > 0
